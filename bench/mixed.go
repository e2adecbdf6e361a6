package main

import (
	"context"
	"fmt"
	"time"

	"spatialjoin"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/obs"
)

// roundSpec sizes one lifecycle round of the read/write workload. Every
// trigger is a count, never a timer, so a round's device and log counters
// repeat exactly.
type roundSpec struct {
	base   int // rects loaded before the measured phase
	chunks int // measured chunks; each ends with a Checkpoint
	chunk  int // inserts per chunk, a multiple of selectEvery
	// tail inserts follow the last checkpoint, for recovery to replay. The
	// log syncs every walGroup-th commit, so the last tail mod walGroup of
	// them are acknowledged but not durable when the crash comes.
	tail int
}

const (
	// Inserts go round-robin to mixedCollections collections and query q
	// goes to collection q mod mixedCollections: the θ work of a window
	// select swings by ±10 % with the shape one R-tree happened to take,
	// and eight trees cut what the seed decides by almost two thirds.
	// Every count below is a multiple of it, so the collections are
	// equally full at every select.
	mixedCollections = 8
	selectEvery      = 8 // selectsPer window selects after every selectEvery-th insert
	selectsPer       = 2
	walGroup         = 8
	mixedPool        = 8192
	reopens          = 3  // recoveries of the surviving device per round
	verifySelect     = 64 // window selects checked against the model after each recovery
)

func (sp roundSpec) inserts() int { return sp.chunks * sp.chunk }
func (sp roundSpec) selects() int { return sp.inserts() / selectEvery * selectsPer }
func (sp roundSpec) stored() int  { return sp.base + sp.inserts() + sp.tail }

// durable is how many inserts the log had synced when the crash came.
func (sp roundSpec) durable() int { return sp.stored() - sp.tail%walGroup }

// roundInputs are a round's seeded inputs and their oracle.
type roundInputs struct {
	spec    roundSpec
	rects   []geom.Rect // base, then inserts, then tail, in insertion order
	payload []string    // payload[g] is stored with rects[g]
	queries []geom.Rect // the measured selects, in issue order
	want    [][]int     // oracle answer of each query at its issue point
	checks  []geom.Rect // post-recovery verification windows
	// local[j] are collection j's rects in its own id order: insert g is
	// object g/mixedCollections of collection g mod mixedCollections.
	local [mixedCollections][]geom.Rect
}

func newRoundInputs(seed int64, sp roundSpec) *roundInputs {
	in := &roundInputs{
		spec:    sp,
		rects:   uniformRects(subSeed(seed, 100), sp.stored()),
		queries: windows(subSeed(seed, 101), sp.selects()),
		checks:  windows(subSeed(seed, 102), verifySelect),
	}
	in.payload = make([]string, len(in.rects))
	for g, r := range in.rects {
		in.payload[g] = payloadOf(g)
		in.local[g%mixedCollections] = append(in.local[g%mixedCollections], r)
	}
	in.want = make([][]int, len(in.queries))
	for q, w := range in.queries {
		// Query q is issued once base + (q/2+1)*8 objects are stored.
		stored := sp.base + (q/selectsPer+1)*selectEvery
		in.want[q] = overlapSelect(in.local[q%mixedCollections], stored/mixedCollections, w)
	}
	return in
}

// roundStat is what one round measured.
type roundStat struct {
	// chunks are the measured phase: each one chunk inserts, their
	// selects, and the checkpoint that ends the chunk — the same work in
	// every chunk, so chunks condense like a read workload's slices.
	chunks    []sliceStat
	failed    int               // mismatches found after recovery, lost inserts included
	setup     time.Duration     // Open + base load + Checkpoint
	recovers  []float64         // seconds each Reopen took
	evals     spatialjoin.Stats // Θ and θ evaluations of the measured selects
	phase     counters          // boundary-counter deltas over the measured phase
	devReads  int64             // device reads over the whole round, verification included
	devWrites int64
	devPages  int64 // pages on the device at round end
	ckpts     []spatialjoin.CheckpointStats
	recovery  spatialjoin.RecoveryStats // of the first Reopen
	lostAcked int
	liveHeap  float64 // MiB live after the measured phase
}

func (r *roundStat) ops() (n int) {
	for _, c := range r.chunks {
		n += c.ops
	}
	return n
}

func (r *roundStat) wall() (d time.Duration) {
	for _, c := range r.chunks {
		d += c.wall
	}
	return d
}

func (r *roundStat) writeAmp(sp roundSpec) float64 {
	return float64(r.phase.disk.Writes) * float64(pageSize) / float64(sp.inserts()*userBytesPer)
}

func (r *roundStat) spaceAmp(sp roundSpec) float64 {
	return float64(r.devPages) * float64(pageSize) / float64(sp.stored()*userBytesPer)
}

func mixedConfig() spatialjoin.Config {
	cfg := spatialjoin.DefaultConfig()
	cfg.Workers = 1
	cfg.BufferPages = mixedPool
	cfg.WAL = true
	cfg.WALGroupCommit = walGroup
	return cfg
}

// runRound plays one lifecycle: a fresh database, the base load, the
// measured chunks of inserts, selects and a checkpoint, a few inserts past
// the last durable point, a crash (the database is abandoned with its log
// buffer unsynced and its dirty frames unwritten), and recoveries of the
// surviving device, each verified against the model. Wrong answers and
// lost acknowledged inserts are failed operations. It returns the last
// recovered database beside the measurements.
func runRound(in *roundInputs, t *tracer) (roundStat, *spatialjoin.Database, error) {
	sp, cfg := in.spec, mixedConfig()
	var st roundStat

	start := time.Now()
	db, err := spatialjoin.Open(cfg)
	if err != nil {
		return st, nil, err
	}
	var cols [mixedCollections]*spatialjoin.Collection
	for j := range cols {
		if cols[j], err = db.CreateCollection(collectionName(j)); err != nil {
			return st, nil, err
		}
	}
	for g := 0; g < sp.base; g++ {
		if _, err := cols[g%mixedCollections].Insert(in.rects[g], in.payload[g]); err != nil {
			return st, nil, err
		}
	}
	if _, err := db.Checkpoint(); err != nil {
		return st, nil, err
	}
	st.setup = time.Since(start)
	if t != nil {
		t.db = db
	}

	before := snapshot(db)
	for k := 0; k < sp.chunks; k++ {
		var opErr error
		chunk := measure(sp.chunk/selectEvery*selectsPer, sp.chunk, func(s *sliceStat) { opErr = in.playChunk(db, cols, k, t, s, &st) })
		if opErr != nil {
			return st, nil, opErr
		}
		st.chunks = append(st.chunks, chunk)
	}
	st.phase = snapshot(db).sub(before)
	st.liveHeap = liveHeapMiB()

	for g := sp.base + sp.inserts(); g < len(in.rects); g++ {
		if _, err := cols[g%mixedCollections].Insert(in.rects[g], in.payload[g]); err != nil {
			return st, nil, err
		}
	}

	// The crash: nothing is flushed, synced or closed. Only the device
	// survives.
	dev := db.Device()
	if t != nil {
		t.db = nil
	}
	var recovered *spatialjoin.Database
	for i := 0; i < reopens; i++ {
		op := t.begin("harness.reopen")
		t0 := time.Now()
		rdb, rs, err := spatialjoin.Reopen(cfg, dev)
		st.recovers = append(st.recovers, time.Since(t0).Seconds())
		op.end(obs.Int("records_scanned", rs.RecordsScanned), obs.Int("records_replayed", rs.RecordsReplayed),
			obs.Int("records_skipped", rs.RecordsSkipped), obs.Int("pages_restored", rs.PagesRestored))
		if err != nil {
			return st, nil, fmt.Errorf("reopen %d: %w", i, err)
		}
		if i == 0 {
			st.recovery = rs
		}
		lost, bad, err := in.verify(rdb)
		if err != nil {
			return st, nil, fmt.Errorf("verifying reopen %d: %w", i, err)
		}
		st.lostAcked += lost
		st.failed += lost + bad
		recovered = rdb
	}

	//sjlint:ignore statsreset whole-round totals of a device this round created
	ds := dev.Stats()
	st.devReads, st.devWrites = ds.Reads, ds.Writes
	if st.devPages, err = devicePages(dev); err != nil {
		return st, nil, err
	}
	return st, recovered, nil
}

// playChunk is measured chunk k: its inserts, selectsPer window selects
// after every selectEvery-th of them, and the checkpoint that ends it.
func (in *roundInputs) playChunk(db *spatialjoin.Database, cols [mixedCollections]*spatialjoin.Collection, k int, t *tracer, s *sliceStat, st *roundStat) error {
	sp := in.spec
	q := k * sp.chunk / selectEvery * selectsPer
	for i := k * sp.chunk; i < (k+1)*sp.chunk; i++ {
		g := sp.base + i
		op := t.sample("harness.insert")
		t0 := time.Now()
		got, err := cols[g%mixedCollections].Insert(in.rects[g], in.payload[g])
		s.writes = append(s.writes, time.Since(t0))
		op.end()
		if err != nil {
			return err
		}
		s.ops++
		if got != g/mixedCollections {
			s.failed++
		}
		if (i+1)%selectEvery != 0 {
			continue
		}
		for n := 0; n < selectsPer; n, q = n+1, q+1 {
			op := t.sample("harness.select")
			t0 := time.Now()
			ids, stats, err := db.SelectContext(op.ctx, cols[q%mixedCollections], in.queries[q], spatialjoin.Overlaps(), spatialjoin.TreeStrategy)
			s.reads = append(s.reads, time.Since(t0))
			op.end(obs.Int("results", int64(len(ids))))
			if err != nil {
				return err
			}
			s.ops++
			st.evals = st.evals.Add(stats)
			if !sameIDs(ids, in.want[q]) {
				s.failed++
			}
		}
	}
	op := t.begin("harness.checkpoint")
	cs, err := db.Checkpoint()
	op.end(obs.Int("pages_flushed", int64(cs.PagesFlushed)), obs.Int("pages_truncated", int64(cs.PagesTruncated)))
	if err != nil {
		return err
	}
	st.ckpts = append(st.ckpts, cs)
	return nil
}

// verify checks a recovered database against the model: the collections
// must together hold a prefix of the insert sequence that contains every
// synced insert, byte-equal per id, and window selects on them must match
// the model's. It returns the number of acknowledged inserts lost and the
// number of other mismatches.
func (in *roundInputs) verify(db *spatialjoin.Database) (lost, bad int, err error) {
	var cols [mixedCollections]*spatialjoin.Collection
	n := 0
	for j := range cols {
		c, ok := db.Collection(collectionName(j))
		if !ok {
			return in.spec.durable(), 0, nil
		}
		cols[j] = c
		n += c.Len()
	}
	if durable := in.spec.durable(); n < durable {
		lost = durable - n
	}
	for j, c := range cols {
		// A prefix of n round-robin inserts leaves collection j with the
		// inserts j, j+k, j+2k, … below n.
		if want := (n - j + mixedCollections - 1) / mixedCollections; c.Len() != want || want > len(in.local[j]) {
			return lost, bad + 1, nil
		}
		for id := 0; id < c.Len(); id++ {
			shape, payload, err := c.Get(id)
			if err != nil {
				return lost, bad, err
			}
			r, isRect := shape.(geom.Rect)
			if !isRect || !geom.SameRect(r, in.local[j][id]) || payload != in.payload[id*mixedCollections+j] {
				bad++
			}
		}
	}
	for i, w := range in.checks {
		j := i % mixedCollections
		ids, _, err := db.SelectContext(context.Background(), cols[j], w, spatialjoin.Overlaps(), spatialjoin.TreeStrategy)
		if err != nil {
			return lost, bad, err
		}
		if !sameIDs(ids, overlapSelect(in.local[j], cols[j].Len(), w)) {
			bad++
		}
	}
	return lost, bad, nil
}

// rounds is a sequence of measured rounds of the same inputs.
type rounds []roundStat

func (rs rounds) chunks() (out []sliceStat) {
	for _, r := range rs {
		out = append(out, r.chunks...)
	}
	return out
}

// tally adds the rounds' operations to out.
func (rs rounds) tally(out *outcome) {
	for _, r := range rs {
		out.attempted += int64(r.ops())
		out.failed += int64(r.failed)
		for _, c := range r.chunks {
			out.failed += int64(c.failed)
		}
	}
}

// recoverTime is the quiet decile of the rounds' Reopen times, in seconds.
func (rs rounds) recoverTime() float64 {
	var recovers []float64
	for _, r := range rs {
		recovers = append(recovers, r.recovers...)
	}
	return quiet(recovers, true)
}

// mixedLedger fills the per-layer metrics of mixed-rw from alternating
// untraced (plain) and traced rounds; db is a recovered database of these
// inputs.
func mixedLedger(in *roundInputs, t *tracer, plain, traced rounds, db *spatialjoin.Database, into values) error {
	harnessHealth(plain.chunks(), into)
	into["timing.recover_s"] = plain.recoverTime()
	opTime := func(rs rounds) float64 {
		return quiet(over(rs.chunks(), func(s sliceStat) float64 { return float64(s.wall) / float64(max(s.ops, 1)) }), true)
	}
	opNS := opTime(plain)
	into["harness.trace_overhead_share"] = 1 - opNS/opTime(traced)

	var total counters
	var work spatialjoin.Stats
	ops := 0
	for _, r := range traced {
		total = total.add(r.phase)
		work = work.Add(r.evals)
		ops += r.ops()
	}
	n := float64(max(ops, 1))
	into["wal.records_per_op"] = float64(total.wal.Records) / n
	into["wal.bytes_logged_per_op"] = float64(total.wal.BytesLogged) / n
	if logged := total.wal.BytesLogged + total.wal.PaddingBytes; logged > 0 {
		into["wal.padding_share"] = float64(total.wal.PaddingBytes) / float64(logged)
	}
	into["wal.syncs_per_op"] = float64(total.wal.Syncs) / n
	into["wal.page_writes_per_op"] = float64(total.wal.PageWrites) / n
	if err := probeWAL(into); err != nil {
		return err
	}
	if opNS > 0 {
		into["wal.est_share"] = float64(total.wal.Commits) / n * into["wal.append_commit_us"] * 1e3 / opNS
	}

	first := plain[0]
	var ckptTotal, ckptMax time.Duration
	var flushed, truncated int
	for _, cs := range first.ckpts {
		ckptTotal += cs.Duration
		ckptMax = max(ckptMax, cs.Duration)
		flushed += cs.PagesFlushed
		truncated += cs.PagesTruncated
	}
	into["checkpoint.count"] = float64(len(first.ckpts))
	into["checkpoint.total_ms"] = ms(ckptTotal)
	into["checkpoint.max_ms"] = ms(ckptMax)
	into["checkpoint.pages_flushed"] = float64(flushed)
	into["checkpoint.pages_truncated"] = float64(truncated)
	// The caller is single-threaded, so all of a checkpoint is a
	// foreground stall.
	into["checkpoint.stall_share"] = float64(ckptTotal) / float64(first.wall())

	rec := first.recovery
	into["recovery.records_scanned"] = float64(rec.RecordsScanned)
	into["recovery.records_replayed"] = float64(rec.RecordsReplayed)
	into["recovery.records_skipped"] = float64(rec.RecordsSkipped)
	into["recovery.pages_restored"] = float64(rec.PagesRestored)
	into["recovery.index_rebuilds_skipped"] = float64(rec.IndexRebuildsSkipped)
	lost := 0
	for _, r := range append(plain, traced...) {
		lost += r.lostAcked
	}
	into["recovery.lost_acked"] = float64(lost)

	c, _ := db.Collection(collectionName(0))
	if err := storageLedger(c, into, total, work, ops, opNS, in.queries, in.local[0]); err != nil {
		return err
	}
	into["harness.open_spans"] = float64(t.open)
	return nil
}
