package relation

import (
	"fmt"
	"math/rand"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/storage"
)

// Placement controls how tuples are laid out on pages when a relation is
// bulk-loaded. The paper's strategy IIb clusters tuples on the spatial
// attribute in breadth-first tree order; strategy IIa assumes no clustering
// at all (tuples randomly distributed in the file).
type Placement uint8

const (
	// PlaceSequential stores tuples in the order supplied by the caller.
	// Handing tuples over in BFS order of their generalization tree yields
	// the paper's clustered layout (IIb).
	PlaceSequential Placement = iota
	// PlaceShuffled stores tuples in a deterministic random permutation,
	// the paper's unclustered layout (IIa).
	PlaceShuffled
)

// Relation is a named collection of tuples with a fixed schema, stored in a
// heap file on the simulated disk. Tuples are addressed by a dense index
// 0..Len()-1 assigned at insert time; the physical position of a tuple is
// whatever the placement policy chose, so logical order and page order can
// differ (that difference is exactly what the IIa/IIb comparison measures).
type Relation struct {
	name   string
	schema Schema
	heap   *storage.HeapFile
	rids   []storage.RID
	rec    []byte // Encode's record buffer, reused by every insert
}

// Create makes an empty relation backed by a fresh heap file. fillFactor is
// the average page utilization l of the cost model.
func Create(pool *storage.BufferPool, name string, schema Schema, fillFactor float64) (*Relation, error) {
	if name == "" {
		return nil, fmt.Errorf("relation: empty relation name")
	}
	if len(schema.Columns) == 0 {
		return nil, fmt.Errorf("relation: schema has no columns")
	}
	h, err := storage.NewHeapFile(pool, fillFactor)
	if err != nil {
		return nil, err
	}
	return &Relation{name: name, schema: schema, heap: h}, nil
}

// BulkLoad creates a relation and loads tuples with the given placement.
// With PlaceShuffled, seed makes the permutation reproducible. The returned
// relation's tuple IDs are positions in the *input* slice regardless of
// placement.
func BulkLoad(pool *storage.BufferPool, name string, schema Schema,
	tuples []Tuple, placement Placement, fillFactor float64, seed int64) (*Relation, error) {

	r, err := Create(pool, name, schema, fillFactor)
	if err != nil {
		return nil, err
	}
	order := make([]int, len(tuples))
	for i := range order {
		order[i] = i
	}
	if placement == PlaceShuffled {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	r.rids = make([]storage.RID, len(tuples))
	for _, idx := range order {
		rec, err := r.Encode(tuples[idx])
		if err != nil {
			return nil, fmt.Errorf("relation: encoding tuple %d: %w", idx, err)
		}
		rid, err := r.heap.Append(rec)
		if err != nil {
			return nil, fmt.Errorf("relation: loading tuple %d: %w", idx, err)
		}
		r.rids[idx] = rid
	}
	return r, nil
}

// Open reattaches to a relation's existing heap file after a restart,
// reassigning tuple IDs in physical scan order. For relations grown by
// sequential Insert — the database's collections — physical order equals
// the original insertion order, so IDs are stable across restarts. The
// heap file's one-pass open hands visit every tuple's new ID, in ID order,
// with the bounds of its spatial column, which the schema must have: an
// index is rebuilt as each page is read once, and no Tuple is built. An
// error from visit stops the pass and is returned.
func Open(pool *storage.BufferPool, name string, schema Schema,
	file storage.FileID, fillFactor float64, visit func(id int, bounds geom.Rect) error) (*Relation, error) {

	col, ok := schema.SpatialColumn()
	if !ok {
		return nil, fmt.Errorf("relation %s: schema has no spatial column", name)
	}
	r := &Relation{name: name, schema: schema}
	h, err := storage.OpenHeapFile(pool, file, fillFactor, func(rid storage.RID, rec []byte) error {
		b, err := schema.decodeBounds(rec, col)
		if err != nil {
			return err
		}
		r.rids = append(r.rids, rid)
		return visit(len(r.rids)-1, b)
	})
	if err != nil {
		return nil, err
	}
	r.heap = h
	return r, nil
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// FileID returns the id of the heap file backing the relation.
func (r *Relation) FileID() storage.FileID { return r.heap.File() }

// Schema returns the relation's schema.
func (r *Relation) Schema() Schema { return r.schema }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.rids) }

// NumPages returns the number of disk pages the relation occupies.
func (r *Relation) NumPages() int { return r.heap.NumPages() }

// Insert appends a tuple and returns its tuple ID: Encode, then Append.
func (r *Relation) Insert(t Tuple) (int, error) {
	rec, err := r.Encode(t)
	if err != nil {
		return 0, err
	}
	return r.Append(rec)
}

// Encode validates t against the schema, encodes it into the relation's
// record buffer, which every call reuses, and rejects a record larger than a
// heap page's budget, so Append cannot refuse it for its size: a caller
// that encodes before its transaction begins fails on a bad tuple having
// changed nothing. The record is valid until the next Encode.
func (r *Relation) Encode(t Tuple) ([]byte, error) {
	rec, err := r.schema.Encode(r.rec[:0], t)
	r.rec = rec
	if err != nil {
		return nil, err
	}
	if err := r.heap.CheckRecord(len(rec)); err != nil {
		return nil, err
	}
	return rec, nil
}

// Append stores a record Encode produced and returns its tuple ID. The heap
// page copies the record, so rec may be reused as soon as Append returns.
func (r *Relation) Append(rec []byte) (int, error) {
	rid, err := r.heap.Append(rec)
	if err != nil {
		return 0, err
	}
	r.rids = append(r.rids, rid)
	return len(r.rids) - 1, nil
}

// Get fetches the tuple with the given ID, touching its page through the
// buffer pool on no query's account.
func (r *Relation) Get(id int) (t Tuple, err error) {
	if id < 0 || id >= len(r.rids) {
		return nil, fmt.Errorf("relation %s: tuple id %d out of range [0,%d)", r.name, id, len(r.rids))
	}
	err = r.heap.Read(r.rids[id], nil, func(rec []byte) (err error) {
		t, err = r.schema.Decode(rec)
		return err
	})
	return t, err
}

// RID returns the physical record id of the tuple, letting callers reason
// about page co-location.
func (r *Relation) RID(id int) (storage.RID, error) {
	if id < 0 || id >= len(r.rids) {
		return storage.RID{}, fmt.Errorf("relation %s: tuple id %d out of range", r.name, id)
	}
	return r.rids[id], nil
}

// PageOf returns the page number holding the tuple.
func (r *Relation) PageOf(id int) (int, error) {
	rid, err := r.RID(id)
	if err != nil {
		return 0, err
	}
	return int(rid.Page.Page), nil
}

// Release tells the buffer pool the query is done with the given heap page,
// which becomes the pool's next eviction victim (storage.BufferPool.Demote).
func (r *Relation) Release(page int) { r.heap.Demote(page) }

// Spatial reads the spatial column col of the tuple straight from its
// record, in one access to its page through the buffer pool
// (Schema.decodeSpatial), charging a miss to reads: a rectangle lands in
// *dst and is returned as dst, so reading one allocates nothing. With dst
// nil the value is not wanted: the record is read and the column checked,
// nothing is built, and nil is returned.
func (r *Relation) Spatial(id, col int, reads *obs.Counter, dst *geom.Rect) (v geom.Spatial, err error) {
	rid, err := r.RID(id)
	if err != nil {
		return nil, err
	}
	err = r.heap.Read(rid, reads, func(rec []byte) (err error) {
		v, err = r.schema.decodeSpatial(rec, col, dst)
		return err
	})
	return v, err
}
