package spatialjoin

// Observability tests: the trace a query emits must agree exactly with the
// Stats it returns (the per-level read deltas telescope to PageReads), and
// failed or degraded queries must still emit complete traces — the
// asymmetry the scan-fallback path used to have.

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"spatialjoin/internal/fault"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/storage"
)

// traceDB opens a healthy database and loads the chaos workload (reused
// here for its known non-empty match set).
func traceDB(t *testing.T, cfg Config) (*Database, *Collection, *Collection) {
	t.Helper()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs, ss, _ := chaosRects()
	r := loadRects(t, db, "r", rs)
	s := loadRects(t, db, "s", ss)
	return db, r, s
}

// sumIntAttr sums the named integer attribute over the spans.
func sumIntAttr(spans []obs.Span, key string) int64 {
	var n int64
	for _, sp := range spans {
		if v, ok := sp.IntAttr(key); ok {
			n += v
		}
	}
	return n
}

// TestTraceReadSumMatchesStats is the acceptance check for the tracer's
// I/O accounting: on a cold tree join, the per-level "reads" recorded in
// the trace sum exactly to the query's Stats.PageReads, and the scrub
// spans' reads sum exactly to Stats.IndexReads.
func TestTraceReadSumMatchesStats(t *testing.T) {
	for _, workers := range []int{1, 4} {
		cfg := DefaultConfig()
		cfg.Workers = workers
		db, r, s := traceDB(t, cfg)
		if err := db.DropCache(); err != nil {
			t.Fatal(err)
		}
		ctx, trace := WithTrace(context.Background())
		ms, stats, err := db.JoinContext(ctx, r, s, Overlaps(), TreeStrategy)
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) == 0 || stats.PageReads == 0 {
			t.Fatalf("workers=%d: workload too small to exercise tracing (matches=%d reads=%d)",
				workers, len(ms), stats.PageReads)
		}
		levels := trace.SpansNamed("level")
		if len(levels) < 2 {
			t.Fatalf("workers=%d: only %d level spans", workers, len(levels))
		}
		if got := sumIntAttr(levels, "reads"); got != stats.PageReads {
			t.Errorf("workers=%d: level reads sum %d, Stats.PageReads %d", workers, got, stats.PageReads)
		}
		if got := sumIntAttr(trace.SpansNamed("scrub"), "reads"); got != stats.IndexReads {
			t.Errorf("workers=%d: scrub reads sum %d, Stats.IndexReads %d", workers, got, stats.IndexReads)
		}
		// The executor and query spans carry the same totals.
		for _, name := range []string{"treejoin", "join"} {
			spans := trace.SpansNamed(name)
			if len(spans) != 1 {
				t.Fatalf("workers=%d: %d %q spans", workers, len(spans), name)
			}
			if got, _ := spans[0].IntAttr("page_reads"); got != stats.PageReads {
				t.Errorf("workers=%d: %s page_reads %d, Stats %d", workers, name, got, stats.PageReads)
			}
		}
		// Per-level filter evaluations must telescope the same way.
		if got := sumIntAttr(levels, "filter_evals"); got != stats.FilterEvals {
			t.Errorf("workers=%d: level filter_evals sum %d, Stats %d", workers, got, stats.FilterEvals)
		}
	}
}

// TestTraceSelectReadSum is the selection-side counterpart.
func TestTraceSelectReadSum(t *testing.T) {
	db, r, _ := traceDB(t, DefaultConfig())
	if err := db.DropCache(); err != nil {
		t.Fatal(err)
	}
	_, ss, _ := chaosRects()
	ctx, trace := WithTrace(context.Background())
	_, stats, err := db.SelectContext(ctx, r, ss[0], Overlaps(), TreeStrategy)
	if err != nil {
		t.Fatal(err)
	}
	if got := sumIntAttr(trace.SpansNamed("level"), "reads"); got != stats.PageReads {
		t.Errorf("level reads sum %d, Stats.PageReads %d", got, stats.PageReads)
	}
	spans := trace.SpansNamed("select")
	if len(spans) != 1 {
		t.Fatalf("%d select spans", len(spans))
	}
	if outcome, _ := spans[0].StrAttr("outcome"); outcome != "ok" {
		t.Errorf("outcome = %q, want ok", outcome)
	}
}

// TestDegradedQueryTraceComplete kills a join-index pair-file page and
// asserts a degraded query still emits a complete trace: a "downgrade"
// event, an "error" event on the failed attempt, every span closed, and the
// final Downgrades count on the query span.
func TestDegradedQueryTraceComplete(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fault = &fault.Options{Seed: 7007}
	db, r, s := traceDB(t, cfg)
	ji, _, err := db.BuildJoinIndex(r, s, Overlaps())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DropCache(); err != nil {
		t.Fatal(err)
	}
	db.FaultDisk().LosePage(storage.PageID{File: ji.FileID(), Page: 0})

	ctx, trace := WithTrace(context.Background())
	_, stats, err := db.JoinContext(ctx, r, s, Overlaps(), IndexStrategy)
	if err != nil {
		t.Fatalf("degradation failed: %v", err)
	}
	if stats.Downgrades != 1 {
		t.Fatalf("Downgrades = %d, want 1", stats.Downgrades)
	}
	var sawDowngrade bool
	for _, e := range trace.Events() {
		if e.Name == "downgrade" {
			sawDowngrade = true
		}
	}
	if !sawDowngrade {
		t.Error("trace missing downgrade event")
	}
	q := trace.SpansNamed("join")
	if len(q) != 1 {
		t.Fatalf("%d join spans", len(q))
	}
	if outcome, _ := q[0].StrAttr("outcome"); outcome != "degraded" {
		t.Errorf("outcome = %q, want degraded", outcome)
	}
	if d, _ := q[0].IntAttr("downgrades"); d != 1 {
		t.Errorf("downgrades attr = %d, want 1", d)
	}
	// The failed attempt's spans are closed, with the failure recorded.
	for _, sp := range trace.Spans() {
		if sp.End == 0 {
			t.Errorf("span %q left open on a degraded query", sp.Name)
		}
	}
	// The fallback ran: a nestedloop executor span exists alongside the
	// aborted scrub span.
	if len(trace.SpansNamed("nestedloop")) != 1 {
		t.Error("trace missing the fallback nestedloop span")
	}
	var tree bytes.Buffer
	if err := trace.WriteTree(&tree); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tree.String(), "! downgrade") {
		t.Errorf("rendered tree missing downgrade event:\n%s", tree.String())
	}
}

// TestTimedOutQueryTrace asserts an expired deadline still ends the query
// span, with the timeout outcome.
func TestTimedOutQueryTrace(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueryTimeout = time.Nanosecond
	db, r, s := traceDB(t, cfg)
	ctx, trace := WithTrace(context.Background())
	_, _, err := db.JoinContext(ctx, r, s, Overlaps(), TreeStrategy)
	if err == nil {
		t.Fatal("expected a deadline error")
	}
	q := trace.SpansNamed("join")
	if len(q) != 1 || q[0].End == 0 {
		t.Fatalf("query span missing or open: %+v", q)
	}
	if outcome, _ := q[0].StrAttr("outcome"); outcome != "timeout" {
		t.Errorf("outcome = %q, want timeout", outcome)
	}
}

// TestDatabaseMetricsFed opens a database with a registry and checks the
// scrape carries every advertised family with live values.
func TestDatabaseMetricsFed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WAL = true
	cfg.Metrics = obs.NewRegistry()
	db, r, s := traceDB(t, cfg)
	if err := db.DropCache(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Join(r, s, Overlaps(), TreeStrategy); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Join(r, s, Overlaps(), ScanStrategy); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cfg.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, family := range []string{
		"spatialjoin_pool_misses_total",
		"spatialjoin_pool_logical_reads_total",
		"spatialjoin_pool_hit_ratio",
		"spatialjoin_disk_reads_total",
		"spatialjoin_wal_commits_total",
		"spatialjoin_wal_commit_batch_size_bucket",
		"spatialjoin_parallel_tasks_total",
		"spatialjoin_queries_total",
		"spatialjoin_query_seconds_bucket",
	} {
		if !strings.Contains(out, family) {
			t.Errorf("scrape missing %s", family)
		}
	}
	if got := cfg.Metrics.Counter("spatialjoin_queries_total", "Queries executed, by kind, strategy, and outcome.",
		obs.L("kind", "join"), obs.L("strategy", "tree"), obs.L("outcome", "ok")).Value(); got != 1 {
		t.Errorf("queries_total{join,tree,ok} = %d, want 1", got)
	}
	if db.Metrics() != cfg.Metrics {
		t.Error("Metrics() accessor lost the registry")
	}
}
