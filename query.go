package spatialjoin

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"

	"spatialjoin/internal/core"
	"spatialjoin/internal/fault"
	"spatialjoin/internal/join"
	"spatialjoin/internal/joinindex"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/storage"
	"spatialjoin/internal/wal"
)

// Strategy selects how a selection or join is computed, matching the
// paper's strategies I–III.
type Strategy uint8

const (
	// TreeStrategy (II) uses the hierarchical SELECT/JOIN algorithms over
	// the collections' R-tree generalization trees. The default.
	TreeStrategy Strategy = iota
	// ScanStrategy (I) is the nested-loop / exhaustive-scan baseline.
	ScanStrategy
	// IndexStrategy (III) answers from a precomputed join index; it
	// requires a prior BuildJoinIndex for the same collections and
	// operator.
	IndexStrategy
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case TreeStrategy:
		return "tree"
	case ScanStrategy:
		return "scan"
	case IndexStrategy:
		return "joinindex"
	default:
		return fmt.Sprintf("Strategy(%d)", uint8(s))
	}
}

// Stats is the measured work of one query, in the cost model's units.
type Stats = join.Stats

// Select returns the IDs of objects a in c with o θ a, along with the
// measured work; SelectContext lists the types o may have. IndexStrategy is
// not supported for ad-hoc selectors (a join index relates stored tuples
// only — the paper's point that a generic search range "is defined ad hoc
// by the user" and cannot be precomputed); use SelectStored for those.
func (db *Database) Select(c *Collection, o Spatial, op Operator, strategy Strategy) ([]int, Stats, error) {
	return db.SelectContext(context.Background(), c, o, op, strategy)
}

// SelectContext is Select bounded by a context (composed with
// Config.QueryTimeout when set). A tree-strategy selection descends the
// heap-derived R-tree, which reads no page, and reads an object's heap page
// when θ evaluates the object; a storage fault on that page surfaces as a
// typed error, and only where the query reads. The selector, a Rect, Point,
// Polygon or Segment, or a non-nil *Rect or *Point, is copied through a type
// switch (shapeCell.hold), so the caller's box of it stays on its stack.
func (db *Database) SelectContext(ctx context.Context, c *Collection, o Spatial, op Operator, strategy Strategy) ([]int, Stats, error) {
	if c == nil || o == nil || op == nil {
		return nil, Stats{}, fmt.Errorf("spatialjoin: nil select argument")
	}
	cell := shapeCells.Get().(*shapeCell)
	defer shapeCells.Put(cell)
	sel, err := cell.hold(o)
	if err != nil {
		return nil, Stats{}, err
	}
	if err := db.checkUsable(); err != nil {
		return nil, Stats{}, err
	}
	ctx, cancel := db.queryCtx(ctx)
	defer cancel()
	ctx, q := db.beginQuery(ctx, "select", strategy)
	ids, stats, err := db.selectOnce(ctx, c, sel, op, strategy)
	if err == nil || strategy != TreeStrategy || !fault.IsPermanent(err) || ctx.Err() != nil {
		q.end(stats, err)
		return ids, stats, err
	}
	q.downgrade(err)
	ids, scanStats, err2 := db.selectOnce(ctx, c, sel, op, ScanStrategy)
	if err2 != nil {
		total := stats.Add(scanStats)
		err = fmt.Errorf("spatialjoin: scan fallback after %v failure (%v): %w", strategy, err, err2)
		q.end(total, err)
		return nil, total, err
	}
	total := stats.Add(scanStats)
	total.Downgrades++
	q.end(total, nil)
	return ids, total, nil
}

// shapeCell holds the engine's copy of a Rect or Point that θ evaluates: a
// select's selector, or an insert's shape under a join index.
type shapeCell struct {
	rect  Rect
	point Point
}

var shapeCells = sync.Pool{New: func() any { return new(shapeCell) }}

// hold returns what θ evaluates for o: a pointer into the cell for a Rect or
// Point, or a boxed copy of a Polygon or Segment. Its errors (a nil pointer,
// any other type) do not format o, because that would leak it.
func (cell *shapeCell) hold(o Spatial) (Spatial, error) {
	switch s := o.(type) {
	case Rect:
		cell.rect = s
		return &cell.rect, nil
	case *Rect:
		if s != nil {
			cell.rect = *s
			return &cell.rect, nil
		}
	case Point:
		cell.point = s
		return &cell.point, nil
	case *Point:
		if s != nil {
			cell.point = *s
			return &cell.point, nil
		}
	case Polygon:
		return s, nil
	case Segment:
		return s, nil
	default:
		return nil, fmt.Errorf("spatialjoin: a selector must be a Rect, Point, Polygon or Segment")
	}
	return nil, fmt.Errorf("spatialjoin: nil select argument")
}

// selectOnce runs one strategy attempt without degradation.
func (db *Database) selectOnce(ctx context.Context, c *Collection, o Spatial, op Operator, strategy Strategy) ([]int, Stats, error) {
	switch strategy {
	case ScanStrategy:
		return join.ExhaustiveSelect(ctx, c.table, o, op)
	case TreeStrategy:
		return join.TreeSelect(ctx, c.index.Generalization(), c.table, o, op, core.BreadthFirst)
	case IndexStrategy:
		return nil, Stats{}, fmt.Errorf("spatialjoin: join indices cannot answer ad-hoc selections; use SelectStored")
	default:
		return nil, Stats{}, fmt.Errorf("spatialjoin: unknown strategy %d", strategy)
	}
}

// SelectStored answers the selection whose selector is the stored object
// rID of collection r, against collection s, from the precomputed join
// index for (r, s, op).
func (db *Database) SelectStored(r *Collection, rID int, s *Collection, op Operator) ([]int, Stats, error) {
	if err := db.checkUsable(); err != nil {
		return nil, Stats{}, err
	}
	ix, ok := db.joinIndexFor(r, s, op)
	if !ok {
		return nil, Stats{}, fmt.Errorf("spatialjoin: no join index for %s ⋈ %s on %s",
			r.name, s.name, op.Name())
	}
	return join.IndexSelect(ix.ix, rID, s.table)
}

// Join computes r ⋈θ s and returns the matching ID pairs with measured
// work. The operator is applied with r-objects as the left operand.
// A scan splits its passes over S across Config.Workers goroutines; the
// tree and index strategies run on the calling goroutine. Whatever the
// worker count or strategy, the returned matches are canonically sorted by
// (R, S), so the outputs of all strategies are byte-comparable.
func (db *Database) Join(r, s *Collection, op Operator, strategy Strategy) ([]Match, Stats, error) {
	return db.JoinContext(context.Background(), r, s, op, strategy)
}

// JoinContext is Join bounded by a context (composed with
// Config.QueryTimeout when set). Before an index-strategy join the join
// index's pair file is scrubbed — read and checksum-verified, its misses
// charged to Stats.IndexReads, and only those its own reads caused: a page
// a concurrent query loaded is a hit, and a concurrent query's misses are
// not this join's — and a permanent storage fault on it degrades the query
// to the nested-loop scan over the base heap files, recorded in
// Stats.Downgrades, still returning the byte-identical correct match set. A
// tree-strategy join descends the heap-derived R-trees, which read no page.
// Faults on the heap files themselves are not recoverable and surface as
// typed errors, but only where the query reads: a tree-strategy join reads
// an object's heap page when θ evaluates the object, so a lost page none of
// whose objects passes a Θ filter leaves the join unaffected.
func (db *Database) JoinContext(ctx context.Context, r, s *Collection, op Operator, strategy Strategy) ([]Match, Stats, error) {
	if r == nil || s == nil || op == nil {
		return nil, Stats{}, fmt.Errorf("spatialjoin: nil join argument")
	}
	if err := db.checkUsable(); err != nil {
		return nil, Stats{}, err
	}
	ctx, cancel := db.queryCtx(ctx)
	defer cancel()
	ctx, q := db.beginQuery(ctx, "join", strategy)
	ms, stats, err := db.joinOnce(ctx, r, s, op, strategy)
	if err == nil || strategy == ScanStrategy || !fault.IsPermanent(err) || ctx.Err() != nil {
		q.end(stats, err)
		return ms, stats, err
	}
	q.downgrade(err)
	ms, scanStats, err2 := db.joinOnce(ctx, r, s, op, ScanStrategy)
	if err2 != nil {
		total := stats.Add(scanStats)
		err = fmt.Errorf("spatialjoin: scan fallback after %v failure (%v): %w", strategy, err, err2)
		q.end(total, err)
		return nil, total, err
	}
	total := stats.Add(scanStats)
	total.Downgrades++
	q.end(total, nil)
	return ms, total, nil
}

// joinOnce runs one strategy attempt without degradation.
func (db *Database) joinOnce(ctx context.Context, r, s *Collection, op Operator, strategy Strategy) ([]Match, Stats, error) {
	switch strategy {
	case ScanStrategy:
		return join.NestedLoop(ctx, r.table, s.table, op, db.cfg.Workers)
	case TreeStrategy:
		return join.TreeJoin(ctx, r.index.Generalization(), r.table,
			s.index.Generalization(), s.table, op)
	case IndexStrategy:
		ix, ok := db.joinIndexFor(r, s, op)
		if !ok {
			return nil, Stats{}, fmt.Errorf("spatialjoin: no join index for %s ⋈ %s on %s; call BuildJoinIndex first",
				r.name, s.name, op.Name())
		}
		scrubbed, err := db.scrubFiles(ctx, ix.file.File())
		if err != nil {
			return nil, Stats{IndexReads: scrubbed}, err
		}
		ms, stats, err := join.IndexJoin(ctx, ix.ix, r.table, s.table)
		stats.IndexReads += scrubbed
		return ms, stats, err
	default:
		return nil, Stats{}, fmt.Errorf("spatialjoin: unknown strategy %d", strategy)
	}
}

// queryCtx composes the caller's context with Config.QueryTimeout.
func (db *Database) queryCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if db.cfg.QueryTimeout > 0 {
		return context.WithTimeout(ctx, db.cfg.QueryTimeout)
	}
	return ctx, func() {}
}

// scrubFiles reads every page of a join index's pair file through the
// buffer pool, whose end-to-end verification rejects lost or corrupted pages
// before the strategy trusts the B+-tree the file backs. The returned count
// is the misses the scrub's own reads caused, on the join's account (the
// executor charges them as index I/O); it is returned even alongside an
// error so partial scrub work stays visible in the statistics.
func (db *Database) scrubFiles(ctx context.Context, file storage.FileID) (int64, error) {
	trace := obs.TraceFrom(ctx)
	span := trace.Begin(obs.SpanFromContext(ctx), "scrub")
	var reads obs.Counter
	var err error
	for p, n := 0, db.pool.Disk().NumPages(file); p < n; p++ {
		if err = ctx.Err(); err != nil {
			break
		}
		// The pool's read verifies the page; the scrub looks at nothing more.
		id := storage.PageID{File: file, Page: int32(p)}
		if err = db.pool.Read(id, &reads, func(*storage.Page) error { return nil }); err != nil {
			err = fmt.Errorf("spatialjoin: index scrub of file %d: %w", file, err)
			break
		}
	}
	if err != nil {
		trace.Event(span, "error", obs.Str("error", err.Error()))
	}
	trace.End(span, obs.Int("reads", reads.Value()))
	return reads.Value(), err
}

// JoinIndex is a precomputed Valduriez join index between two collections
// for one operator. It is maintained automatically on inserts into either
// collection — the expensive path the paper's update model prices. The
// B+-tree lives in memory; every pair is also persisted to a backing file
// on the simulated disk, which index-strategy joins scrub before trusting
// the index (see JoinContext).
type JoinIndex struct {
	r, s *Collection
	op   Operator
	ix   *joinindex.Index
	file *storage.HeapFile
	// probe holds the other tuple's rectangle while an insert is checked
	// against it; mutations are serialized, so one scratch serves all.
	probe Rect
}

// registration is the catalog record naming ji's pair file: logged when ji
// is built, and carried by every checkpoint manifest after that.
func (ji *JoinIndex) registration() wal.Record {
	return wal.Record{Type: wal.RecNewJoinIndex, Data: wal.EncodeNewJoinIndex(wal.NewJoinIndex{
		R: ji.r.name, S: ji.s.name, Operator: ji.op.Name(), PairFile: ji.file.File(),
	})}
}

// Pairs returns the number of precomputed matching pairs |J|.
func (ji *JoinIndex) Pairs() int { return ji.ix.Len() }

// FileID returns the disk file backing the join index's persisted pairs —
// the pages an index-strategy join scrubs. Chaos tests target these pages
// to simulate join-index loss.
func (ji *JoinIndex) FileID() storage.FileID { return ji.file.File() }

// appendPair persists one (rid, sid) pair to the index's backing file.
func (ji *JoinIndex) appendPair(rid, sid int) error {
	var rec [16]byte
	binary.LittleEndian.PutUint64(rec[0:], uint64(rid))
	binary.LittleEndian.PutUint64(rec[8:], uint64(sid))
	_, err := ji.file.Append(rec[:])
	return err
}

// decodePair parses one persisted (rid, sid) pair record.
func decodePair(rec []byte) (rid, sid int, err error) {
	if len(rec) != 16 {
		return 0, 0, fmt.Errorf("spatialjoin: pair record of %d bytes, want 16", len(rec))
	}
	return int(binary.LittleEndian.Uint64(rec[0:])), int(binary.LittleEndian.Uint64(rec[8:])), nil
}

// joinIndexKey identifies an index by collections and operator.
func joinIndexKey(r, s *Collection, op Operator) string {
	return r.name + "\x00" + s.name + "\x00" + op.Name()
}

func (db *Database) joinIndexFor(r, s *Collection, op Operator) (*JoinIndex, bool) {
	ji, ok := db.joinIndices[joinIndexKey(r, s, op)]
	return ji, ok
}

// HasJoinIndex reports whether a join index for r ⋈θ s is registered —
// e.g. because it rode in with a recovered log or a seeded snapshot.
func (db *Database) HasJoinIndex(r, s *Collection, op Operator) bool {
	if r == nil || s == nil || op == nil {
		return false
	}
	_, ok := db.joinIndexFor(r, s, op)
	return ok
}

// BuildJoinIndex precomputes the join index for r ⋈θ s (strategy III's
// setup step) and registers it for IndexStrategy joins and incremental
// maintenance. The returned stats show the exhaustive build cost.
func (db *Database) BuildJoinIndex(r, s *Collection, op Operator) (*JoinIndex, Stats, error) {
	if r == nil || s == nil || op == nil {
		return nil, Stats{}, fmt.Errorf("spatialjoin: nil join-index argument")
	}
	key := joinIndexKey(r, s, op)
	if _, dup := db.joinIndices[key]; dup {
		return nil, Stats{}, fmt.Errorf("spatialjoin: join index for %s ⋈ %s on %s already exists",
			r.name, s.name, op.Name())
	}
	ix, stats, err := join.BuildIndex(r.table, s.table, op, db.cfg.JoinIndexOrder)
	if err != nil {
		return nil, stats, err
	}
	var ji *JoinIndex
	var reg wal.Record
	err = db.runTxn(func(txn uint64) error {
		file, err := storage.NewHeapFile(db.pool, db.cfg.FillFactor)
		if err != nil {
			return err
		}
		ji = &JoinIndex{r: r, s: s, op: op, ix: ix, file: file}
		var werr error
		ix.AllPairs(func(rid, sid int) bool {
			werr = ji.appendPair(rid, sid)
			return werr == nil
		})
		if werr != nil {
			return werr
		}
		reg = ji.registration()
		if db.wal != nil {
			_, err = db.wal.AppendCatalog(txn, reg.Type, reg.Data)
			return err
		}
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	db.mu.Lock()
	db.joinIndices[key] = ji
	db.registerLocked(key, reg)
	db.mu.Unlock()
	return ji, stats, nil
}

// maintainJoinIndices updates every registered join index after an insert
// into collection c: the new object is checked against the entire other
// collection (the paper's U_III cost). Each probe reads only the other
// tuple's shape, θ's operand, straight from its record
// (relation.Relation.Spatial), a rectangle into the index's scratch. θ is an
// interface method, so it gets the engine's copy of shape (shapeCell.hold),
// and only when a join index exists: the caller's box stays on its stack.
func (db *Database) maintainJoinIndices(c *Collection, id int, shape Spatial) error {
	if len(db.joinIndices) == 0 {
		return nil
	}
	cell := shapeCells.Get().(*shapeCell)
	defer shapeCells.Put(cell)
	obj, err := cell.hold(shape)
	if err != nil {
		return err
	}
	for _, ji := range db.joinIndices {
		// Both branches run for a self-join index (ji.r == ji.s == c). The
		// R branch already decided (id, id), so the S branch skips it: θ
		// runs once and the pair is written once.
		if ji.r == c {
			_, err := ji.ix.MaintainInsertR(id, ji.s.rel.Len(), func(sid int) (bool, error) {
				other, err := ji.s.rel.Spatial(sid, ji.s.table.Col, nil, &ji.probe)
				if err != nil {
					return false, err
				}
				if !ji.op.Eval(obj, other) {
					return false, nil
				}
				return true, ji.appendPair(id, sid)
			})
			if err != nil {
				return err
			}
		}
		if ji.s == c {
			_, err := ji.ix.MaintainInsertS(id, ji.r.rel.Len(), func(rid int) (bool, error) {
				if ji.r == c && rid == id {
					return false, nil
				}
				other, err := ji.r.rel.Spatial(rid, ji.r.table.Col, nil, &ji.probe)
				if err != nil {
					return false, err
				}
				if !ji.op.Eval(other, obj) {
					return false, nil
				}
				return true, ji.appendPair(rid, id)
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}
