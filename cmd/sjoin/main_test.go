package main

import (
	"strings"
	"testing"

	"spatialjoin/internal/pred"
)

func TestParseOp(t *testing.T) {
	cases := map[string]string{
		"overlaps":       "overlaps",
		"within:50":      "within_distance(50)",
		"nw":             "northwest_of",
		"includes":       "includes",
		"containedin":    "contained_in",
		"reachable:10:2": "reachable_within(10min@2)",
	}
	for spec, want := range cases {
		op, err := parseOp(spec)
		if err != nil {
			t.Fatalf("parseOp(%s): %v", spec, err)
		}
		if op.Name() != want {
			t.Fatalf("parseOp(%s) = %s, want %s", spec, op.Name(), want)
		}
	}
	for _, bad := range []string{"", "warp", "within", "within:x", "reachable:1", "reachable:a:b"} {
		if _, err := parseOp(bad); err == nil {
			t.Fatalf("parseOp(%q) must fail", bad)
		}
	}
	// Sanity: the parsed operator is usable.
	op, _ := parseOp("within:5")
	if _, ok := op.(pred.WithinDistance); !ok {
		t.Fatal("wrong operator type")
	}
}

// testOptions is the shared small workload of the run tests.
func testOptions(mode, op, strategy, layout string) options {
	return options{
		mode: mode, k: 3, height: 2, op: op, strategy: strategy, layout: layout,
		buffer: 32, seed: 1, faultSeed: 1,
	}
}

func runSjoin(t *testing.T, mode, op, strategy, layout string) string {
	t.Helper()
	var sb strings.Builder
	if err := run(&sb, testOptions(mode, op, strategy, layout)); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestRunWithFaultsRecoversAndReportsRetries(t *testing.T) {
	var sb strings.Builder
	o := testOptions("join", "overlaps", "tree", "clustered")
	o.faultSeed, o.faultRate = 7, 0.2
	if err := run(&sb, o); err != nil {
		t.Fatalf("join under transient faults must recover: %v", err)
	}
	out := sb.String()
	for _, want := range []string{"retries", "faulted attempts"} {
		if !strings.Contains(out, want) {
			t.Fatalf("faulted run output missing %q:\n%s", want, out)
		}
	}
	// The same workload on a healthy disk returns the same result row.
	healthy := runSjoin(t, "join", "overlaps", "tree", "clustered")
	resultCount := func(s string) string {
		for _, line := range strings.Split(s, "\n") {
			f := strings.Fields(line)
			if len(f) >= 2 && f[0] == "tree" {
				return f[1]
			}
		}
		return ""
	}
	if got, want := resultCount(out), resultCount(healthy); got == "" || got != want {
		t.Fatalf("faulted run found %s results, healthy run %s", got, want)
	}
}

func TestRunJoinAllStrategies(t *testing.T) {
	out := runSjoin(t, "join", "overlaps", "all", "clustered")
	for _, want := range []string{"workload:", "scan", "tree", "index", "cost", "amortized"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// All strategies, and the tree join over R-trees, must report the same
	// result count: extract the first column numbers.
	counts := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 7 && (f[0] == "scan" || f[0] == "tree" || f[0] == "rtree" || f[0] == "index") {
			counts[f[1]] = true
		}
	}
	if len(counts) != 1 {
		t.Fatalf("strategies disagree on result counts: %v\n%s", counts, out)
	}
}

func TestRunSelectSkipsIndex(t *testing.T) {
	out := runSjoin(t, "select", "within:120", "all", "shuffled")
	if !strings.Contains(out, "cannot answer ad-hoc selections") {
		t.Fatalf("select must note the index limitation:\n%s", out)
	}
	if !strings.Contains(out, "tree") || !strings.Contains(out, "scan") {
		t.Fatal("select must run scan and tree")
	}
}

func TestRunErrors(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, testOptions("join", "bogus", "all", "clustered")); err == nil {
		t.Error("bad operator must fail")
	}
	if err := run(&sb, testOptions("join", "overlaps", "warp", "clustered")); err == nil {
		t.Error("bad strategy must fail")
	}
	if err := run(&sb, testOptions("join", "overlaps", "all", "diagonal")); err == nil {
		t.Error("bad layout must fail")
	}
	if err := run(&sb, testOptions("neither", "overlaps", "all", "clustered")); err == nil {
		t.Error("bad mode must fail")
	}
	zeroBuf := testOptions("join", "overlaps", "all", "clustered")
	zeroBuf.buffer = 0
	if err := run(&sb, zeroBuf); err == nil {
		t.Error("zero buffer must fail")
	}
	badRate := testOptions("join", "overlaps", "all", "clustered")
	badRate.faultRate = 1.5
	if err := run(&sb, badRate); err == nil {
		t.Error("out-of-range fault rate must fail")
	}
}

// explainLevelReads parses the "trace: level reads sum A == ... reads B"
// summary line into its two totals.
func explainLevelReads(t *testing.T, out string) (sum, total string, equal bool) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "trace: level reads sum") {
			continue
		}
		f := strings.Fields(line)
		// trace: level reads sum <A> <==|!=> tree strategy page reads <B>
		if len(f) != 11 {
			t.Fatalf("malformed trace summary line: %q", line)
		}
		return f[4], f[10], f[5] == "=="
	}
	t.Fatalf("output has no trace summary line:\n%s", out)
	return "", "", false
}

func TestRunExplainJoin(t *testing.T) {
	var sb strings.Builder
	o := testOptions("join", "overlaps", "tree", "clustered")
	o.explain = true
	if err := run(&sb, o); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"explain analyze:", "treejoin", "qualpairs", "model IOa"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain output missing %q:\n%s", want, out)
		}
	}
	// The acceptance identity: the per-level reads of the printed trace sum
	// exactly to the strategy's page-read counter.
	sum, total, equal := explainLevelReads(t, out)
	if !equal {
		t.Fatalf("level reads sum %s != strategy page reads %s:\n%s", sum, total, out)
	}
	if sum == "0" {
		t.Fatalf("traced join read no pages; workload too small:\n%s", out)
	}
}

func TestRunExplainSelect(t *testing.T) {
	var sb strings.Builder
	o := testOptions("select", "overlaps", "tree", "shuffled")
	o.explain = true
	if err := run(&sb, o); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"explain analyze:", "treeselect", "qualnodes", "model nodes"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain output missing %q:\n%s", want, out)
		}
	}
	if _, _, equal := explainLevelReads(t, out); !equal {
		t.Fatalf("select level reads do not telescope:\n%s", out)
	}
}
