package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"spatialjoin"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/storage"
	"spatialjoin/internal/wal"
)

// counters is one snapshot of the boundary counters the engine already
// exposes. The harness only ever reports the difference of two snapshots.
type counters struct {
	pool storage.PoolStats
	disk storage.DiskStats
	wal  wal.Stats
}

func snapshot(db *spatialjoin.Database) counters {
	//sjlint:ignore statsreset the harness reports deltas between two snapshots, never an absolute count
	pool, disk := db.IOStats(), db.DiskStats()
	return counters{pool: pool, disk: disk, wal: db.WALStats()}
}

// sub returns the activity between snapshot b and the later snapshot c;
// add sums two activities.
func (c counters) sub(b counters) counters { return c.combine(b, -1) }
func (c counters) add(b counters) counters { return c.combine(b, +1) }

func (c counters) combine(b counters, sign int64) counters {
	c.pool.LogicalReads += sign * b.pool.LogicalReads
	c.pool.Misses += sign * b.pool.Misses
	c.pool.Evictions += sign * b.pool.Evictions
	c.pool.WALSyncs += sign * b.pool.WALSyncs
	c.disk.Reads += sign * b.disk.Reads
	c.disk.Writes += sign * b.disk.Writes
	c.wal.Records += sign * b.wal.Records
	c.wal.Commits += sign * b.wal.Commits
	c.wal.Syncs += sign * b.wal.Syncs
	c.wal.PageWrites += sign * b.wal.PageWrites
	c.wal.BytesLogged += sign * b.wal.BytesLogged
	c.wal.PaddingBytes += sign * b.wal.PaddingBytes
	return c
}

// microTraceEvery is the sampling period for operations that take tens of
// microseconds: tracing one costs about as much as the operation.
const microTraceEvery = 32

// keptOps is how many traced operations are written out in full; the rest
// are traced just the same (so the overhead is representative) and only
// their span durations are kept.
const keptOps = 256

// tracer records the traced pass: one harness-owned obs.Trace per
// operation, with a harness span around the public call, the engine's own
// spans nested under it, and the boundary-counter deltas as attributes of
// the harness span. A nil tracer is the untraced run: begin hands out a
// plain background context and end does nothing.
type tracer struct {
	file *obs.Trace // the first keptOps operations, written out at the end
	kept int
	// every is the sampling period of sample: 1 traces every operation.
	every, seq int
	ops        int // operations traced so far
	// spans totals the closed spans seen, by name; open counts spans that
	// were never ended.
	spans map[string]*spanTotal
	open  int
	db    *spatialjoin.Database // whose counters ride on the harness spans
}

type spanTotal struct {
	n   int
	sum time.Duration
}

func newTracer(every int) *tracer {
	return &tracer{file: obs.NewTrace(), spans: make(map[string]*spanTotal), every: every}
}

// tracedOp is one operation in flight under a tracer.
type tracedOp struct {
	t      *tracer
	tr     *obs.Trace
	span   obs.SpanID // the harness span in tr
	wrap   obs.SpanID // the time base in t.file, when this op is kept
	before counters
	ctx    context.Context
}

// sample opens the harness span for every t.every-th call, so that tracing
// microsecond operations costs the run a few percent and not half of it.
func (t *tracer) sample(name string) tracedOp {
	if t == nil {
		return tracedOp{ctx: context.Background()}
	}
	if t.seq++; t.seq%t.every != 0 {
		return tracedOp{ctx: context.Background()}
	}
	return t.begin(name)
}

// begin opens the harness span for one public call named name.
func (t *tracer) begin(name string) tracedOp {
	if t == nil {
		return tracedOp{ctx: context.Background()}
	}
	t.ops++
	op := tracedOp{t: t, tr: obs.NewTrace()}
	if t.kept < keptOps {
		op.wrap = t.file.Begin(0, "op")
	}
	if t.db != nil {
		op.before = snapshot(t.db)
	}
	op.span = op.tr.Begin(0, name)
	op.ctx = obs.ContextWithSpan(obs.ContextWithTrace(context.Background(), op.tr), op.span)
	return op
}

// end closes the harness span, stamps the counter deltas on it, and folds
// the operation's spans into the tracer's totals.
func (op tracedOp) end(attrs ...obs.Attr) {
	t := op.t
	if t == nil {
		return
	}
	if t.db != nil {
		d := snapshot(t.db).sub(op.before)
		attrs = append(attrs,
			obs.Int("pool_fetches", d.pool.LogicalReads),
			obs.Int("pool_misses", d.pool.Misses),
			obs.Int("disk_reads", d.disk.Reads),
			obs.Int("disk_writes", d.disk.Writes),
			obs.Int("wal_records", d.wal.Records),
		)
	}
	op.tr.End(op.span, attrs...)
	for _, s := range op.tr.Spans() {
		if s.End == 0 {
			t.open++
			continue
		}
		tot := t.spans[s.Name]
		if tot == nil {
			tot = &spanTotal{}
			t.spans[s.Name] = tot
		}
		tot.n++
		tot.sum += s.Dur()
	}
	if op.wrap != 0 {
		t.file.Graft(op.wrap, op.tr.Export())
		t.file.End(op.wrap)
		t.kept++
	}
}

// meanUS is the mean duration of the closed spans named name, in µs.
func (t *tracer) meanUS(name string) float64 {
	tot := t.spans[name]
	if tot == nil || tot.n == 0 {
		return 0
	}
	return us(tot.sum) / float64(tot.n)
}

// write stores the kept operations as a Chrome trace under dir.
func (t *tracer) write(dir, workload string) (err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("trace-%s.json", workload)))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return t.file.WriteChromeTrace(f)
}
