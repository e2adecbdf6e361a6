package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"spatialjoin"
	"spatialjoin/internal/core"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/pred"
	"spatialjoin/internal/rtree"
	"spatialjoin/internal/storage"
	"spatialjoin/internal/wal"
	"spatialjoin/internal/wire"
)

// The probes measure what one unit of a layer's work costs by calling the
// layer directly, from outside, on the workload's own data. A probe times
// batches and reports the median batch, per call.

const (
	probeBatches = 9
	probeCalls   = 2000
)

var probeSink int

// perCall times probeBatches batches of n calls of f and returns the
// median batch's time per call.
func perCall(n int, f func(i int)) time.Duration {
	batches := make([]float64, probeBatches)
	for b := range batches {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		batches[b] = float64(time.Since(t0)) / float64(n)
	}
	return time.Duration(median(batches))
}

// storageCosts are the unit costs of the pool and the device.
type storageCosts struct {
	hit, miss, read, write, crc time.Duration
}

// probeStorage measures the pool's hit and miss paths on a harness-owned
// pool — a resident page; 16 frames cycling 256 pages, so every fetch
// evicts and reads — and one page read, write and checksum directly on a
// device.
func probeStorage() (storageCosts, error) {
	var sc storageCosts
	const pages = 256
	disk := storage.NewDisk(pageSize)
	file := disk.CreateFile()
	buf := make([]byte, pageSize)
	for p := 0; p < pages; p++ {
		id, err := disk.AllocPage(file)
		if err != nil {
			return sc, err
		}
		rand.New(rand.NewSource(int64(p))).Read(buf)
		//sjlint:ignore rawdisk the probe fills a harness-owned device whose transfers no experiment counts
		if err := disk.WritePage(id, buf); err != nil {
			return sc, err
		}
	}
	page := func(i int) storage.PageID { return storage.PageID{File: file, Page: int32(i % pages)} }

	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	hot, err := storage.NewBufferPool(disk, pages)
	if err != nil {
		return sc, err
	}
	_, err = hot.Fetch(page(0))
	keep(err)
	sc.hit = perCall(probeCalls, func(int) {
		_, err := hot.Fetch(page(0))
		keep(err)
	})
	cold, err := storage.NewBufferPool(disk, coldPool)
	if err != nil {
		return sc, err
	}
	sc.miss = perCall(probeCalls, func(i int) {
		_, err := cold.Fetch(page(i))
		keep(err)
	})
	sc.read = perCall(probeCalls, func(i int) {
		//sjlint:ignore rawdisk the unit cost of one device read is the thing measured
		_, err := disk.ReadPage(page(i))
		keep(err)
	})
	sc.write = perCall(probeCalls, func(i int) {
		//sjlint:ignore rawdisk the unit cost of one device write is the thing measured
		keep(disk.WritePage(page(i), buf))
	})
	sc.crc = perCall(probeCalls, func(int) { probeSink += int(storage.PageChecksum(buf)) })
	return sc, firstErr
}

// storageLedger fills the per-layer metrics every workload has: the
// boundary counts per operation over the traced slices, the unit costs of
// pool, device, predicate, R-tree and tuple decode, and each layer's
// estimated share of the median operation — count × unit cost ÷ opNS, the
// paper's cost formula in nanoseconds. probes × stored are the workload's
// own operand pairs: the left operands (join R, or query windows) and the
// stored rectangles.
func storageLedger(c *spatialjoin.Collection, into values, total counters, work spatialjoin.Stats, ops int, opNS float64, probes, stored []geom.Rect) error {
	n := float64(max(ops, 1))
	into["pred.filter_evals_per_op"] = float64(work.FilterEvals) / n
	into["pred.exact_evals_per_op"] = float64(work.ExactEvals) / n
	sc, err := probeStorage()
	if err != nil {
		return err
	}
	fetches, misses := float64(total.pool.LogicalReads)/n, float64(total.pool.Misses)/n
	reads, writes := float64(total.disk.Reads)/n, float64(total.disk.Writes)/n
	into["storage.pool.fetches_per_op"] = fetches
	into["storage.pool.hit_ratio"] = total.pool.HitRatio()
	into["storage.pool.evictions_per_op"] = float64(total.pool.Evictions) / n
	into["storage.pool.wal_syncs_per_op"] = float64(total.pool.WALSyncs) / n
	into["storage.pool.fetch_hit_ns"] = float64(sc.hit)
	into["storage.pool.fetch_miss_ns"] = float64(sc.miss)
	into["storage.disk.reads_per_op"] = reads
	into["storage.disk.writes_per_op"] = writes
	into["storage.disk.read_ns"] = float64(sc.read)
	into["storage.disk.write_ns"] = float64(sc.write)
	into["storage.disk.crc_ns"] = float64(sc.crc)
	// A miss's device read is the device's cost, not the pool's; the log's
	// page writes are charged to the log.
	poolNS := (fetches-misses)*float64(sc.hit) + misses*float64(sc.miss-sc.read)
	diskNS := reads*float64(sc.read) + (writes-float64(total.wal.PageWrites)/n)*float64(sc.write)

	// Predicate: Θ on bounding rectangles, θ on the exact objects.
	op := pred.Overlaps{}
	left, right := make([]geom.Spatial, len(probes)), make([]geom.Spatial, len(stored))
	for i, r := range probes {
		left[i] = r
	}
	for i, r := range stored {
		right[i] = r
	}
	count := func(ok bool) {
		if ok {
			probeSink++
		}
	}
	filterNS := perCall(probeCalls, func(i int) { count(op.Filter(probes[i%len(probes)], stored[(i*7)%len(stored)])) })
	exactNS := perCall(probeCalls, func(i int) { count(op.Eval(left[i%len(left)], right[(i*7)%len(right)])) })
	into["pred.filter_ns"] = float64(filterNS)
	into["pred.exact_ns"] = float64(exactNS)
	predNS := into["pred.filter_evals_per_op"]*float64(filterNS) + into["pred.exact_evals_per_op"]*float64(exactNS)

	// R-tree: insert every stored rectangle into a tree of the engine's
	// options, then search it with the probes.
	tree, err := rtree.New(rtree.DefaultOptions())
	if err != nil {
		return err
	}
	t0 := time.Now()
	for id, r := range stored {
		tree.Insert(r, id)
	}
	into["rtree.insert_us"] = us(time.Since(t0)) / float64(len(stored))
	into["rtree.height"] = float64(tree.Height())
	into["rtree.search_us"] = us(perCall(min(probeCalls, len(probes)), func(i int) {
		probeSink += tree.Search(probes[i], func(rtree.Item) bool { return true })
	}))

	// Tuple decode: Collection.Get on resident pages.
	if c == nil {
		return fmt.Errorf("no collection to probe tuple decode on")
	}
	var getErr error
	into["relation.get_ns"] = float64(perCall(probeCalls, func(i int) {
		if _, _, err := c.Get(i % c.Len()); err != nil {
			getErr = err
		}
	}))
	if getErr != nil {
		return getErr
	}

	if opNS > 0 {
		into["storage.pool.est_share"] = poolNS / opNS
		into["storage.disk.est_share"] = diskNS / opNS
		into["pred.est_share"] = predNS / opNS
		into["ledger.residual_share"] = 1 - (poolNS+diskNS+predNS)/opNS - into["wal.est_share"]
	}
	return nil
}

// medianOf runs f n times and returns the median duration.
func medianOf(n int, f func() error) (time.Duration, error) {
	runs := make([]float64, n)
	for i := range runs {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		runs[i] = float64(time.Since(t0))
	}
	return time.Duration(median(runs)), nil
}

// joinProbes runs the four strategies on one pair, so that a regression
// only one strategy suffers still has a row: median of 20 calls (scan: 3).
func joinProbes(rs, ss []geom.Rect, into values) error {
	l, err := startLoad(hotPool, false)
	if err != nil {
		return err
	}
	db := l.db
	r, err := l.add("r", rs)
	if err != nil {
		return err
	}
	s, err := l.add("s", ss)
	if err != nil {
		return err
	}
	want := overlapJoin(rs, ss)
	strategy := func(calls int, st spatialjoin.Strategy) (time.Duration, error) {
		return medianOf(calls, func() error {
			got, _, err := db.JoinContext(context.Background(), r, s, spatialjoin.Overlaps(), st)
			if err == nil && !slices.Equal(got, want) {
				err = fmt.Errorf("%v strategy returned %d matches, oracle has %d", st, len(got), len(want))
			}
			return err
		})
	}
	tree, err := strategy(20, spatialjoin.TreeStrategy)
	if err != nil {
		return err
	}
	scan, err := strategy(3, spatialjoin.ScanStrategy)
	if err != nil {
		return err
	}
	if _, _, err := db.BuildJoinIndex(r, s, spatialjoin.Overlaps()); err != nil {
		return err
	}
	index, err := strategy(20, spatialjoin.IndexStrategy)
	if err != nil {
		return err
	}
	zorder, err := medianOf(20, func() error {
		got, err := spatialjoin.ZOverlapJoin(rs, ss, world, 9)
		if err == nil && !slices.Equal(got, want) {
			err = fmt.Errorf("z-order join returned %d matches, oracle has %d", len(got), len(want))
		}
		return err
	})
	if err != nil {
		return err
	}
	shuffled := make([]spatialjoin.Match, len(want))
	sorting, err := medianOf(20, func() error {
		copy(shuffled, want)
		rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		core.SortMatches(shuffled)
		return nil
	})
	if err != nil {
		return err
	}
	into["join.tree_ms"] = ms(tree)
	into["join.scan_ms"] = ms(scan)
	into["join.index_ms"] = ms(index)
	into["zorder.join_ms"] = ms(zorder)
	into["join.sort_matches_us"] = us(sorting)
	return db.Close()
}

// servedLedger fills the wire and server layers of select-served: codec
// unit costs, socket phases and server spans from the traced operations,
// and what serving adds over the same selects made in-process.
func (in *servedInputs) servedLedger(sys *system, t *tracer, into values, ops int, opNS float64) error {
	n := float64(max(ops, 1))
	// Only traced operations cross the metered connection.
	bytesMoved, frames := sys.served.conn.totals()
	into["wire.bytes_per_op"] = float64(bytesMoved) / float64(max(t.ops, 1))
	into["wire.frames_per_op"] = float64(frames) / float64(max(t.ops, 1))

	var codecErr error
	req := wire.SelectRequest{Strategy: uint8(spatialjoin.TreeStrategy), Op: wire.Overlaps(), Collection: collectionName(0)}
	frame := make([]byte, 0, 256)
	into["wire.req_codec_ns"] = float64(perCall(probeCalls, func(i int) {
		req.Selector = in.wins[i%len(in.wins)]
		payload, err := wire.EncodeSelect(req)
		if err == nil {
			frame = wire.AppendFrame(frame[:0], wire.Frame{Type: wire.TypeSelect, Request: uint64(i + 1), Payload: payload})
			var f wire.Frame
			if f, err = wire.ReadFrame(bytes.NewReader(frame), 0); err == nil {
				_, err = wire.DecodeSelect(f.Payload)
			}
		}
		if err != nil {
			codecErr = err
		}
	}))
	// Result codecs on the workload's own answers: every window's id list,
	// and the same ids paired up as matches.
	results := 0
	var ids []int
	var matches []spatialjoin.Match
	pass := func() {
		results = 0
		for _, want := range in.want {
			var err error
			if ids, err = wire.DecodeIDs(ids[:0], wire.EncodeIDs(want)); err != nil {
				codecErr = err
			}
			matches = matches[:0]
			for _, id := range want {
				matches = append(matches, spatialjoin.Match{R: id, S: id})
			}
			if matches, err = wire.DecodeMatches(matches[:0], wire.EncodeMatches(matches)); err != nil {
				codecErr = err
			}
			results += 2 * len(want)
		}
	}
	codec, _ := medianOf(probeBatches, func() error { pass(); return nil })
	if results > 0 {
		into["wire.result_codec_ns_per_result"] = float64(codec) / float64(results)
	}
	if codecErr != nil {
		return codecErr
	}

	into["server.ttfb_us"] = t.meanUS("conn.first_byte")
	into["server.stream_us"] = t.meanUS("conn.last_byte")
	into["server.admission_us"] = t.meanUS("admission")
	into["server.engine_us"] = t.meanUS("select")
	into["server.stream_span_us"] = t.meanUS("stream")
	into["server.shed_per_op"] = float64(sys.served.shed) / n

	// The same windows, selected in-process.
	cols := make([]*spatialjoin.Collection, len(in.rects))
	for c := range cols {
		col, ok := sys.db.Collection(collectionName(c))
		if !ok {
			return fmt.Errorf("collection %s is gone", collectionName(c))
		}
		cols[c] = col
	}
	var p50s []float64
	lats := make([]time.Duration, 0, len(in.wins))
	for cycle := 0; cycle < probeBatches; cycle++ {
		lats = lats[:0]
		for j, w := range in.wins {
			t0 := time.Now()
			ids, _, err := sys.db.SelectContext(context.Background(), cols[j%len(cols)], w, spatialjoin.Overlaps(), spatialjoin.TreeStrategy)
			lats = append(lats, time.Since(t0))
			if err != nil {
				return err
			}
			if !sameIDs(ids, in.want[j]) {
				return fmt.Errorf("in-process select of window %d disagrees with the oracle", j)
			}
		}
		p50s = append(p50s, float64(quantile(lats, 0.5)))
	}
	inProcessNS := quiet(p50s, true)
	into["server.added_us"] = (opNS - inProcessNS) / 1e3
	if opNS > 0 {
		into["server.added_share"] = (opNS - inProcessNS) / opNS
	}
	return nil
}

// probeWAL measures the log directly on a raw device, group commit 8: one
// transaction of two page images (what an insert logs) from Begin to
// Commit, syncs amortised; and one Sync of a one-record tail.
func probeWAL(into values) error {
	disk := storage.NewDisk(pageSize)
	lg, err := wal.Create(disk, walGroup)
	if err != nil {
		return err
	}
	file := disk.CreateFile()
	image := make([]byte, pageSize)
	var walErr error
	txn := uint64(0)
	into["wal.append_commit_us"] = us(perCall(probeCalls, func(i int) {
		txn++
		lg.Begin(txn)
		lg.AppendImage(txn, storage.PageID{File: file, Page: 0}, image)
		lg.AppendImage(txn, storage.PageID{File: file, Page: 1}, image)
		if _, err := lg.Commit(txn); err != nil {
			walErr = err
		}
	}))
	into["wal.sync_us"] = us(perCall(probeCalls/10, func(i int) {
		txn++
		lg.Begin(txn)
		lg.Abort(txn)
		if err := lg.Sync(); err != nil {
			walErr = err
		}
	}))
	return walErr
}
