package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"spatialjoin"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/storage"
)

// options are the knobs of one benchmark run.
type options struct {
	seed     int64
	seconds  float64 // measuring time: split evenly over the measured slices
	slices   int     // measured slices; for mixed-rw the fewest measured rounds
	trace    bool
	traceDir string
	warn     io.Writer // where to say that the machine was busy; nil: nowhere
	sizes    sizes
}

// sizes are the input sizes of the four workloads. The benchmark runs
// fullSizes; the package's tests run the same code on inputs small enough
// for a few seconds.
type sizes struct {
	joinPairs, joinSize                          int // pairs of R and S, rects in each
	servedCollections, servedSize, servedWindows int
	round                                        roundSpec // the mixed-rw round
}

var fullSizes = sizes{
	joinPairs: 8, joinSize: 2000,
	servedCollections: 8, servedSize: 5000, servedWindows: 4096,
	round: roundSpec{base: 10000, chunks: 4, chunk: 2048, tail: 512 + 3},
}

// outcome is one workload's measurements and its operation tally.
type outcome struct {
	vals              values
	attempted, failed int64
	// disturbed is the share of an untraced run's slices whose noise-guard
	// walks ran slow.
	disturbed float64
}

// system is a read workload's system under test, built from generated
// inputs only.
type system struct {
	db    *spatialjoin.Database
	kind  string // the harness span name of one operation
	cycle int    // operations per cycle; a slice is whole cycles, so every slice does identical work
	// call performs operation i of the cycle under ctx. It returns the
	// operation's latency, the work the engine reported for it, and
	// whether the answer matched the oracle.
	call func(ctx context.Context, i int) (lat time.Duration, work spatialjoin.Stats, ok bool, err error)
	// stop ends what runs beside the database (a server and its clients).
	stop func() error
	// traceEvery is the share of operations a traced slice traces: 1 for
	// millisecond operations, more for microsecond ones.
	traceEvery int
	// served is the socket-side meter of a served system; nil in-process.
	served *servedMeter
}

func (sys *system) close() error { return errors.Join(sys.stop(), sys.db.Close()) }

// load is a database being loaded for a read workload, and what loading it
// measured.
type load struct {
	db    *spatialjoin.Database
	cfg   spatialjoin.Config
	rects map[string][]geom.Rect // what each collection was loaded with
}

// startLoad opens a database with the given pool. The system under test is
// not logged: a read workload writes nothing while it is measured, and a
// log on the in-memory device would be most of the live heap. A logged
// load is a twin (see runRead).
func startLoad(bufferPages int, logged bool) (*load, error) {
	cfg := spatialjoin.DefaultConfig()
	cfg.Workers = 1
	cfg.BufferPages = bufferPages
	cfg.WAL = logged
	cfg.WALGroupCommit = walGroup
	db, err := spatialjoin.Open(cfg)
	return &load{db: db, cfg: cfg, rects: map[string][]geom.Rect{}}, err
}

// add creates the named collection and inserts rects in order, so object
// ids are positions in rects.
func (l *load) add(name string, rects []geom.Rect) (*spatialjoin.Collection, error) {
	c, err := l.db.CreateCollection(name)
	if err != nil {
		return nil, err
	}
	for id, r := range rects {
		if _, err := c.Insert(r, payloadOf(id)); err != nil {
			return nil, err
		}
	}
	l.rects[name] = rects
	return c, nil
}

// finish writes the load to the device: a checkpoint when logged, else a
// flush.
func (l *load) finish() error {
	if l.cfg.WAL {
		_, err := l.db.Checkpoint()
		return err
	}
	return l.db.Flush()
}

// devicePages is how many pages the files of an in-memory device hold.
func devicePages(dev storage.Device) (pages int64, err error) {
	disk, ok := dev.(*storage.Disk)
	if !ok {
		return 0, fmt.Errorf("device is a %T, want the in-memory disk", dev)
	}
	for f := 0; f < disk.Files(); f++ {
		pages += int64(disk.NumPages(storage.FileID(f)))
	}
	return pages, nil
}

// twinStat is what one logged twin counted.
type twinStat struct {
	stored              int
	devWrites, devPages int64
	intact              bool // the recovered collections are byte-equal to what was loaded
}

// crashAndRecover ends a finished, logged load the way a crash would —
// nothing is flushed, synced or closed after the checkpoint — and recovers
// its device, checking the recovery against what was loaded.
func (l *load) crashAndRecover() (twinStat, error) {
	st := twinStat{intact: true}
	dev := l.db.Device()
	//sjlint:ignore statsreset totals of a device this load created
	st.devWrites = dev.Stats().Writes
	pages, err := devicePages(dev)
	if err != nil {
		return st, err
	}
	st.devPages = pages
	db, _, err := spatialjoin.Reopen(l.cfg, dev)
	if err != nil {
		return st, fmt.Errorf("reopen: %w", err)
	}
	for name, rects := range l.rects {
		st.stored += len(rects)
		c, ok := db.Collection(name)
		if !ok || c.Len() != len(rects) {
			st.intact = false
			continue
		}
		for id, want := range rects {
			shape, payload, err := c.Get(id)
			if err != nil {
				return st, err
			}
			if r, isRect := shape.(geom.Rect); !isRect || !geom.SameRect(r, want) || payload != payloadOf(id) {
				st.intact = false
			}
		}
	}
	return st, db.Close()
}

// readBench is what the shared read-workload driver needs from a workload.
type readBench struct {
	name string
	// parts is how many independently loadable parts the inputs have: join
	// pairs, served collections.
	parts int
	// load opens a database, logged or not, and loads the given parts.
	load func(logged bool, parts []int) (*load, error)
	// start makes a loaded database of every part the system under test.
	start func(db *spatialjoin.Database) (*system, error)
	// ledger measures the layers' unit costs on the workload's own data
	// and fills the per-layer metrics. total are the boundary-counter
	// deltas and work the engine-reported evaluations over the ops traced
	// operations; opNS is the median untraced operation.
	ledger func(sys *system, t *tracer, into values, total counters, work spatialjoin.Stats, ops int, opNS float64) error
}

// slice runs whole cycles of the closed loop — one request in flight, the
// next issued once the previous answer has been checked — until d has
// passed. samples sizes the latency buffer.
func (sys *system) slice(d time.Duration, t *tracer, samples int) (sliceStat, spatialjoin.Stats, error) {
	var work spatialjoin.Stats
	var opErr error
	st := measure(samples, 0, func(s *sliceStat) {
		for deadline := time.Now().Add(d); opErr == nil; {
			for i := 0; i < sys.cycle; i++ {
				op := t.sample(sys.kind)
				lat, w, ok, err := sys.call(op.ctx, i)
				op.end()
				if err != nil {
					opErr = err
					return
				}
				s.ops++
				s.reads = append(s.reads, lat)
				work = work.Add(w)
				if !ok {
					s.failed++
				}
			}
			if !time.Now().Before(deadline) {
				return
			}
		}
	})
	return st, work, opErr
}

// countCycles is the length of the count pass in cycles: the first starts
// from an empty pool, the rest run warm, so the page reads of the pass see
// a warm path that goes to the device as well as the cold start.
const countCycles = 2

// runRead drives a read workload. An untraced run is eight laps: a lap
// builds the system under test afresh (a timed set-up), plays it warm,
// measures its share of the slices and closes it; the first lap's warm-up
// is the count pass over exactly countCycles cycles from an empty pool. A
// set-up is a tenth of a second of work and the reference container changes
// speed for seconds to minutes at a time, so the set-ups are spread through
// the run, where they meet the moments the slices meet. After the laps come
// the logged twins. A traced run sets up once and alternates untraced and
// traced slices to fill the per-layer ledger.
//
// A twin is a logged database loaded with one part of the workload's own
// inputs, checkpointed, crashed, recovered and compared with what was
// loaded. A read workload writes nothing while it is measured, so the twins
// are where its write and space amplification come from, which the
// benchmark contract wants on every workload.
func runRead(o options, b readBench) (out outcome, err error) {
	out.vals = values{}
	var sys *system
	defer func() {
		if sys != nil {
			err = errors.Join(err, sys.close())
		}
	}()
	// Every set-up starts from a collected heap that holds the inputs and
	// nothing else: what the collector finds to do during a tenth of a
	// second of inserts otherwise depends on what ran before.
	var setups []float64
	setUp := func() error {
		every := make([]int, b.parts)
		for p := range every {
			every[p] = p
		}
		runtime.GC()
		t0 := time.Now()
		l, err := b.load(false, every)
		if err != nil {
			return err
		}
		if sys, err = b.start(l.db); err != nil {
			return errors.Join(err, l.db.Close())
		}
		setups = append(setups, time.Since(t0).Seconds())
		return nil
	}
	// play runs whole cycles outside any slice, checking every answer.
	play := func(cycles int) (work spatialjoin.Stats, err error) {
		for i := 0; i < cycles*sys.cycle; i++ {
			_, w, ok, err := sys.call(context.Background(), i%sys.cycle)
			if err != nil {
				return work, err
			}
			work = work.Add(w)
			out.attempted++
			if !ok {
				out.failed++
			}
		}
		return work, nil
	}

	// The count pass: its counters depend on the inputs alone, never on how
	// many operations a slice fitted, so they repeat bit for bit.
	if err := setUp(); err != nil {
		return out, err
	}
	if err := sys.db.DropCache(); err != nil {
		return out, err
	}
	before := snapshot(sys.db)
	countStart := time.Now()
	work, err := play(countCycles)
	if err != nil {
		return out, err
	}
	perOp := time.Since(countStart) / time.Duration(countCycles*sys.cycle)
	counted := snapshot(sys.db).sub(before)

	if o.slices == 0 {
		o.slices = defaultSlices
	}
	sliceLen := time.Duration(o.seconds / float64(o.slices) * float64(time.Second))
	samples := 2 * (sys.cycle + int(sliceLen/max(perOp, 1)))
	tally := func(st sliceStat) {
		out.attempted += int64(st.ops)
		out.failed += int64(st.failed)
	}

	if !o.trace {
		ops := float64(countCycles * sys.cycle)
		out.vals["page_reads_per_op"] = float64(counted.disk.Reads) / ops
		out.vals["theta_evals_per_op"] = float64(work.FilterEvals+work.ExactEvals) / ops
		// A lap measures its share of the slices, or as many of them as it
		// takes to use up the measuring time up to the lap's end: a slice is
		// whole cycles, so a slow workload fits fewer than it was allowed.
		// All laps together still measure minSlices, if allowed that many.
		laps := min(maxLaps, o.slices)
		perLap := (o.slices + laps - 1) / laps
		atLeast := min(perLap, (minSlices+laps-1)/laps)
		lapLen := time.Duration(o.seconds / float64(laps) * float64(time.Second))
		var slices []sliceStat
		var measured time.Duration
		for lap := 0; lap < laps; lap++ {
			if lap > 0 {
				if err := setUp(); err != nil {
					return out, err
				}
				if _, err := play(1); err != nil {
					return out, err
				}
			}
			for n := 0; n < perLap && (n < atLeast || measured < time.Duration(lap+1)*lapLen); n++ {
				st, _, err := sys.slice(sliceLen, nil, samples)
				if err != nil {
					return out, err
				}
				tally(st)
				slices = append(slices, st)
				measured += st.wall
			}
			if lap == laps-1 {
				out.vals["live_heap_mb"] = liveHeapMiB()
			}
			done := sys
			sys = nil
			if err := done.close(); err != nil {
				return out, err
			}
		}
		allocation(slices, out.vals)
		timing(slices, out.vals)
		out.disturbed = disturbedShare(slices)
		out.vals["setup_s"] = quiet(setups, true)

		var twins twinStat
		for p := 0; p < b.parts; p++ {
			l, err := b.load(true, []int{p})
			if err != nil {
				return out, err
			}
			st, err := l.crashAndRecover()
			if err != nil {
				return out, fmt.Errorf("twin of part %d: %w", p, err)
			}
			out.attempted++
			if !st.intact {
				out.failed++
			}
			twins.stored += st.stored
			twins.devWrites += st.devWrites
			twins.devPages += st.devPages
		}
		userBytes := float64(twins.stored * userBytesPer)
		out.vals["write_amp"] = float64(twins.devWrites) * float64(pageSize) / userBytes
		out.vals["space_amp"] = float64(twins.devPages) * float64(pageSize) / userBytes
		return out, nil
	}

	// A slice is at least one cycle, so a slow workload fits fewer slices
	// into the measuring time than it was allowed; it still takes minSlices.
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	more := func(done int) bool {
		return done < min(o.slices, minSlices) || (done < o.slices && time.Now().Before(deadline))
	}

	// Traced run: untraced and traced slices alternate, so that drift of
	// the box hits both sides alike.
	t := newTracer(sys.traceEvery)
	t.db = sys.db
	var plain, traced []sliceStat
	var total counters
	work = spatialjoin.Stats{}
	tracedOps := 0
	for more(2 * len(plain)) {
		st, _, err := sys.slice(sliceLen, nil, samples)
		if err != nil {
			return out, err
		}
		tally(st)
		plain = append(plain, st)
		before := snapshot(sys.db)
		st, w, err := sys.slice(sliceLen, t, samples)
		if err != nil {
			return out, err
		}
		tally(st)
		traced = append(traced, st)
		total = total.add(snapshot(sys.db).sub(before))
		work = work.Add(w)
		tracedOps += st.ops
	}
	into := out.vals
	harnessHealth(plain, into)
	rate := func(slices []sliceStat) float64 {
		return quiet(over(slices, func(s sliceStat) float64 { return float64(s.ops) / s.wall.Seconds() }), false)
	}
	into["harness.trace_overhead_share"] = 1 - rate(traced)/rate(plain)
	opNS := quiet(over(plain, func(s sliceStat) float64 { return float64(quantile(s.reads, 0.5)) }), true)
	if err := b.ledger(sys, t, into, total, work, tracedOps, opNS); err != nil {
		return out, err
	}
	into["harness.open_spans"] = float64(t.open)
	return out, t.write(o.traceDir, b.name)
}
