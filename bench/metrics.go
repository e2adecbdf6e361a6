package main

import (
	"fmt"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's vocabulary: BENCHMARK.json declares exactly these
// names and units (bench_test.go holds the two in step), every workload
// reports every end-to-end metric on an untraced run and every per-layer
// metric on a traced one, and later issues state their claims in these
// names.
type metricDef struct {
	name, unit string
}

// endToEnd is what a user of the system sees, as far as it repeats on the
// reference container: set-up time, the paper's two counted costs, memory,
// and the two amplifications. README.md defines each one. What a user sees
// on the clock — throughput, CPU time, latency, recovery time — is timing.*
// below: measured the same way, reported by every run, bound by nothing.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"page_reads_per_op", "count"},
	{"theta_evals_per_op", "count"},
	{"allocs_per_op", "count"},
	{"alloc_kb_per_op", "KiB"},
	{"live_heap_mb", "MiB"},
	{"write_amp", "ratio"},
	{"space_amp", "ratio"},
}

// timingPrefix marks the timings. A traced run reports them among the
// per-layer metrics, from its untraced slices; an untraced run measures
// them over all of its slices and prints them on standard error, since its
// result line holds the end-to-end metrics and nothing else.
const timingPrefix = "timing."

// exactMetrics are end-to-end metrics computed from counters over a fixed
// number of operations: for one seed they repeat bit for bit, which
// -selfcheck and the tests assert.
var exactMetrics = map[string]bool{
	"page_reads_per_op":  true,
	"theta_evals_per_op": true,
	"write_amp":          true,
	"space_amp":          true,
}

// perLayer is the outside-in ledger: counts taken at layer boundaries,
// unit costs measured by calling each layer directly on the workload's own
// data, and the harness's own health figures. A layer a workload does not
// cross reports 0.
var perLayer = []metricDef{
	{"storage.pool.fetches_per_op", "count"},
	{"storage.pool.hit_ratio", "ratio"},
	{"storage.pool.evictions_per_op", "count"},
	{"storage.pool.wal_syncs_per_op", "count"},
	{"storage.pool.fetch_hit_ns", "ns"},
	{"storage.pool.fetch_miss_ns", "ns"},
	{"storage.pool.est_share", "ratio"},

	{"storage.disk.reads_per_op", "count"},
	{"storage.disk.writes_per_op", "count"},
	{"storage.disk.read_ns", "ns"},
	{"storage.disk.write_ns", "ns"},
	{"storage.disk.crc_ns", "ns"},
	{"storage.disk.est_share", "ratio"},

	{"pred.filter_evals_per_op", "count"},
	{"pred.exact_evals_per_op", "count"},
	{"pred.filter_ns", "ns"},
	{"pred.exact_ns", "ns"},
	{"pred.est_share", "ratio"},

	{"rtree.height", "count"},
	{"rtree.search_us", "us"},
	{"rtree.insert_us", "us"},

	{"relation.get_ns", "ns"},

	{"join.tree_ms", "ms"},
	{"join.scan_ms", "ms"},
	{"join.index_ms", "ms"},
	{"join.sort_matches_us", "us"},
	{"zorder.join_ms", "ms"},

	{"wire.req_codec_ns", "ns"},
	{"wire.result_codec_ns_per_result", "ns"},
	{"wire.bytes_per_op", "B"},
	{"wire.frames_per_op", "count"},

	{"server.ttfb_us", "us"},
	{"server.stream_us", "us"},
	{"server.added_us", "us"},
	{"server.added_share", "ratio"},
	{"server.admission_us", "us"},
	{"server.engine_us", "us"},
	{"server.stream_span_us", "us"},
	{"server.shed_per_op", "count"},

	{"wal.records_per_op", "count"},
	{"wal.bytes_logged_per_op", "B"},
	{"wal.padding_share", "ratio"},
	{"wal.syncs_per_op", "count"},
	{"wal.page_writes_per_op", "count"},
	{"wal.append_commit_us", "us"},
	{"wal.sync_us", "us"},
	{"wal.est_share", "ratio"},

	{"checkpoint.count", "count"},
	{"checkpoint.total_ms", "ms"},
	{"checkpoint.max_ms", "ms"},
	{"checkpoint.pages_flushed", "count"},
	{"checkpoint.pages_truncated", "count"},
	{"checkpoint.stall_share", "ratio"},

	{"recovery.records_scanned", "count"},
	{"recovery.records_replayed", "count"},
	{"recovery.records_skipped", "count"},
	{"recovery.pages_restored", "count"},
	{"recovery.index_rebuilds_skipped", "count"},
	{"recovery.lost_acked", "count"},

	{"timing.ops_per_s", "1/s"},
	{"timing.cpu_ms_per_op", "ms"},
	{"timing.read_p50_ms", "ms"},
	{"timing.write_p50_us", "us"},
	{"timing.write_p90_us", "us"},
	{"timing.recover_s", "s"},

	{"tail.read_p90_ms", "ms"},
	{"tail.read_p99_ms", "ms"},
	{"tail.read_max_ms", "ms"},
	{"tail.write_p99_us", "us"},
	{"tail.write_max_us", "us"},

	{"runtime.gc_cycles_per_s", "1/s"},
	{"runtime.gc_cpu_share", "ratio"},

	{"ledger.residual_share", "ratio"},

	{"harness.trace_overhead_share", "ratio"},
	{"harness.disturbed_share", "ratio"},
	{"harness.median_to_quiet.ops_per_s", "ratio"},
	{"harness.slice_spread.ops_per_s", "ratio"},
	{"harness.slice_spread.read_p50_ms", "ratio"},
	{"harness.samples_read", "count"},
	{"harness.samples_write", "count"},
	{"harness.open_spans", "count"},
	{"harness.nproc", "count"},
}

// metric is one reported value, as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output for one workload.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// values collects a run's measurements by metric name; report turns them
// into the declared set, so a workload can neither drop nor invent a name.
type values map[string]float64

// report renders vals under defs. A declared metric the workload did not
// set reports 0; a set name that is not declared is a harness bug.
func report(defs []metricDef, vals values) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	var stray []string
	for name := range vals {
		if _, declared := out[name]; !declared {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return nil, fmt.Errorf("undeclared metrics %s", strings.Join(stray, ", "))
	}
	return out, nil
}
