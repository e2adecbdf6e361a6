package spatialjoin

import (
	"context"
	"errors"
	"strconv"
	"time"

	"spatialjoin/internal/obs"
	"spatialjoin/internal/parallel"
)

// Trace re-exports the per-query tracer so embedders arm tracing without
// importing internal packages: ctx, trace := spatialjoin.WithTrace(ctx),
// run queries with ctx, then render trace.WriteTree / WriteChromeTrace.
type Trace = obs.Trace

// WithTrace arms per-query tracing on the context. Every Join/Select run
// under the returned context records its descent — query, executor, and
// per-level spans with cost-model unit deltas — into the returned trace.
func WithTrace(ctx context.Context) (context.Context, *Trace) {
	return obs.WithTrace(ctx)
}

// queryLatencyBuckets are the spatialjoin_query_seconds histogram bounds:
// microsecond-scale cached lookups through multi-second degraded scans.
var queryLatencyBuckets = []float64{
	1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 5, 30,
}

// registerMetrics wires every layer's existing atomic counters into the
// configured registry as scrape-time samplers, so the hot paths pay
// nothing: only the WAL observer (a histogram feed per sync) and the
// parallel pool's gated task accounting add work, and only once metrics
// are enabled. Called from Open when Config.Metrics is set.
//
// The registry is get-or-create keyed by metric name, so two databases
// sharing one registry would overwrite each other's samplers; give each
// database its own registry (scrape handlers can serve several).
func (db *Database) registerMetrics() {
	m := db.cfg.Metrics
	if m == nil {
		return
	}
	count := func(name, help string, fn func() int64, labels ...obs.Label) {
		m.CounterFunc(name, help, func() float64 { return float64(fn()) }, labels...)
	}

	pool := db.pool
	count("spatialjoin_pool_logical_reads_total", "Page fetches served by the buffer pool.",
		func() int64 { return pool.Stats().LogicalReads })
	count("spatialjoin_pool_misses_total", "Pool fetches that went to the disk (physical reads).",
		func() int64 { return pool.Stats().Misses })
	count("spatialjoin_pool_evictions_total", "Frames evicted by the pool's LRU policy.",
		func() int64 { return pool.Stats().Evictions })
	count("spatialjoin_pool_read_retries_total", "Physical page reads retried after a transient fault.",
		func() int64 { return pool.Stats().ReadRetries })
	count("spatialjoin_pool_write_retries_total", "Physical page writes retried after a transient fault.",
		func() int64 { return pool.Stats().WriteRetries })
	count("spatialjoin_pool_wal_syncs_total", "WAL syncs forced by dirty-frame write-back.",
		func() int64 { return pool.Stats().WALSyncs })
	m.GaugeFunc("spatialjoin_pool_hit_ratio", "Fraction of pool fetches served without disk I/O.",
		func() float64 {
			s := pool.Stats()
			if s.LogicalReads == 0 {
				return 0
			}
			return 1 - float64(s.Misses)/float64(s.LogicalReads)
		})

	disk := pool.Disk()
	count("spatialjoin_disk_reads_total", "Physical page reads at the device, including fault retries.",
		func() int64 { return disk.Stats().Reads })
	count("spatialjoin_disk_writes_total", "Physical page writes at the device, including fault retries.",
		func() int64 { return disk.Stats().Writes })
	count("spatialjoin_disk_read_faults_total", "Injected or detected read faults at the device.",
		func() int64 { return disk.Stats().ReadFaults })
	count("spatialjoin_disk_write_faults_total", "Injected or detected write faults at the device.",
		func() int64 { return disk.Stats().WriteFaults })

	if w := db.wal; w != nil {
		count("spatialjoin_wal_records_total", "Records appended to the write-ahead log.",
			func() int64 { return w.Stats().Records })
		count("spatialjoin_wal_images_total", "Full page images logged (first change to a clean frame).",
			func() int64 { return w.Stats().Images })
		count("spatialjoin_wal_appends_total", "Slot-append redo records logged.",
			func() int64 { return w.Stats().Appends })
		count("spatialjoin_wal_commits_total", "Transactions committed through the log.",
			func() int64 { return w.Stats().Commits })
		count("spatialjoin_wal_syncs_total", "Log syncs (group-commit flushes).",
			func() int64 { return w.Stats().Syncs })
		count("spatialjoin_wal_page_writes_total", "Physical log pages written.",
			func() int64 { return w.Stats().PageWrites })
		count("spatialjoin_wal_bytes_logged_total", "Payload bytes appended to the log.",
			func() int64 { return w.Stats().BytesLogged })
		count("spatialjoin_wal_padding_bytes_total", "Log page bytes wasted sealing partial pages.",
			func() int64 { return w.Stats().PaddingBytes })
		sizeBuckets := []float64{1, 2, 4, 8, 16, 32, 64}
		batch := m.Histogram("spatialjoin_wal_commit_batch_size",
			"Commits batched per group-commit sync.", sizeBuckets)
		pages := m.Histogram("spatialjoin_wal_sync_pages",
			"Log pages written per sync.", sizeBuckets)
		w.SetObserver(func(batchCommits, pagesWritten int) {
			batch.Observe(float64(batchCommits))
			pages.Observe(float64(pagesWritten))
		})
		count("spatialjoin_wal_aborts_total", "Transactions aborted through the log.",
			func() int64 { return w.Stats().Aborts })
		count("spatialjoin_wal_truncated_pages_total", "Log pages that fell wholly below the scan floor at a checkpoint.",
			func() int64 { return w.Stats().TruncatedPages })
		count("spatialjoin_wal_segments_dropped_total", "Log segments given back to the device once wholly below the scan floor.",
			func() int64 { return w.Stats().SegmentsDropped })
		m.GaugeFunc("spatialjoin_wal_log_pages", "Pages the log's segments hold on the device: the space the log costs.",
			func() float64 {
				n := 0
				for _, s := range w.Segments() {
					n += disk.NumPages(s.File)
				}
				return float64(n)
			})
		count("spatialjoin_checkpoints_total", "Fuzzy checkpoints completed.",
			func() int64 { return w.Stats().Checkpoints })
		count("spatialjoin_checkpoint_pages_flushed_total", "Dirty frames written back by checkpoint sweeps.",
			func() int64 { return db.CheckpointTotals().PagesFlushed })
		m.GaugeFunc("spatialjoin_checkpoint_redo_floor", "Redo floor LSN of the last checkpoint.",
			func() float64 { return float64(db.CheckpointTotals().LastFloor) })
		m.GaugeFunc("spatialjoin_checkpoint_last_seconds", "Duration of the last checkpoint.",
			func() float64 { return db.CheckpointTotals().LastDuration.Seconds() })

		// Recovery gauges are constants for the life of the database: the
		// stats of the pass that produced it (all zero after a plain Open).
		rec := db.recovered
		m.GaugeFunc("spatialjoin_recovery_records_replayed", "Committed images replayed by the recovery that produced this database.",
			func() float64 { return float64(rec.RecordsReplayed) })
		m.GaugeFunc("spatialjoin_recovery_records_skipped", "Committed images the checkpoint proved already durable.",
			func() float64 { return float64(rec.RecordsSkipped) })
		m.GaugeFunc("spatialjoin_recovery_log_pages_read", "Log pages recovery read to find the live head and assemble the stream.",
			func() float64 { return float64(rec.LogPagesRead) })
		m.GaugeFunc("spatialjoin_recovery_head_page", "First log page recovery scanned; the pages below it are dead.",
			func() float64 { return float64(rec.HeadPage) })
	}

	parallel.EnableMetrics()
	count("spatialjoin_parallel_runs_total", "Worker-pool fan-outs started.",
		func() int64 { return parallel.Stats().Runs })
	count("spatialjoin_parallel_tasks_total", "Worker-pool tasks completed.",
		func() int64 { return parallel.Stats().Tasks })
	m.CounterFunc("spatialjoin_parallel_busy_seconds_total", "Total time all workers spent inside tasks.",
		func() float64 { return float64(parallel.Stats().BusyNanos) / 1e9 })
	workers := parallel.Workers(db.cfg.Workers)
	if workers > 64 {
		workers = 64
	}
	for w := 0; w < workers; w++ {
		slot := w
		m.CounterFunc("spatialjoin_parallel_worker_busy_seconds_total",
			"Per-worker-slot time spent inside tasks.",
			func() float64 { return float64(parallel.Stats().WorkerBusyNanos[slot]) / 1e9 },
			obs.L("worker", strconv.Itoa(slot)))
	}
}

// queryObs carries one query's observability state: the armed trace (nil
// when tracing is off), its root span, and the wall-clock start feeding
// the latency histogram. The zero cost of the off path is one TraceFrom
// lookup plus a time.Now.
type queryObs struct {
	db       *Database
	trace    *obs.Trace
	span     obs.SpanID
	kind     string
	strategy Strategy
	start    time.Time
}

// recKindCode maps the query kind onto the flight recorder's code space.
func recKindCode(kind string) uint8 {
	if kind == "join" {
		return obs.RecCodeJoin
	}
	return obs.RecCodeSelect
}

// beginQuery opens the query's root span (named by kind: "join" or
// "select"), rewires the context so executor spans nest under it, and
// drops a query_start event into the always-on flight recorder (with the
// trace's ID when traced, so a post-incident dump correlates with the
// caller's span tree).
func (db *Database) beginQuery(ctx context.Context, kind string, strategy Strategy) (context.Context, queryObs) {
	q := queryObs{db: db, kind: kind, strategy: strategy, start: time.Now()}
	q.trace = obs.TraceFrom(ctx)
	if q.trace != nil {
		q.span = q.trace.Begin(obs.SpanFromContext(ctx), kind)
		q.trace.Annotate(q.span, obs.Str("strategy", strategy.String()))
		ctx = obs.ContextWithSpan(ctx, q.span)
	}
	obs.Record(obs.RecQueryStart, recKindCode(kind), q.trace.ID(), int64(strategy), 0)
	return ctx, q
}

// downgrade records the strategy fallback on the trace and the metrics
// plane at the moment it is decided, so a trace of a degraded query shows
// when — and why — the planner abandoned the requested strategy.
func (q *queryObs) downgrade(cause error) {
	q.trace.Event(q.span, "downgrade",
		obs.Str("from", q.strategy.String()),
		obs.Str("to", ScanStrategy.String()),
		obs.Str("error", cause.Error()))
	if m := q.db.cfg.Metrics; m != nil {
		m.Counter("spatialjoin_query_downgrades_total",
			"Queries degraded to the scan strategy after a permanent index fault.",
			obs.L("kind", q.kind)).Inc()
	}
}

// end closes the query span with the final stats and outcome — also on
// failure, so an errored or degraded query still emits a complete trace —
// feeds the query counters and latency histogram, and lands query_finish
// (plus slow_query, over Config.SlowQuery) in the flight recorder.
func (q *queryObs) end(stats Stats, err error) {
	outcome := "ok"
	recCode := obs.RecCodeOK
	switch {
	case err != nil && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)):
		outcome = "timeout"
		recCode = obs.RecCodeTimeout
	case err != nil:
		outcome = "error"
		recCode = obs.RecCodeError
	case stats.Downgrades > 0:
		outcome = "degraded"
		recCode = obs.RecCodeDegraded
	}
	elapsed := time.Since(q.start)
	obs.Record(obs.RecQueryFinish, recCode, q.trace.ID(), elapsed.Nanoseconds(), stats.PageReads)
	if slow := q.db.cfg.SlowQuery; slow > 0 && elapsed >= slow {
		obs.Record(obs.RecSlowQuery, recCode, q.trace.ID(), elapsed.Nanoseconds(), slow.Nanoseconds())
	}
	if q.trace != nil {
		if err != nil {
			q.trace.Event(q.span, "error", obs.Str("error", err.Error()))
		}
		q.trace.End(q.span,
			obs.Str("outcome", outcome),
			obs.Int("filter_evals", stats.FilterEvals),
			obs.Int("exact_evals", stats.ExactEvals),
			obs.Int("page_reads", stats.PageReads),
			obs.Int("index_reads", stats.IndexReads),
			obs.Int("downgrades", stats.Downgrades),
		)
	}
	if m := q.db.cfg.Metrics; m != nil {
		labels := []obs.Label{obs.L("kind", q.kind), obs.L("strategy", q.strategy.String())}
		m.Counter("spatialjoin_queries_total", "Queries executed, by kind, strategy, and outcome.",
			append(labels[:2:2], obs.L("outcome", outcome))...).Inc()
		m.Histogram("spatialjoin_query_seconds", "Query wall time in seconds.",
			queryLatencyBuckets, labels...).Observe(elapsed.Seconds())
	}
}
