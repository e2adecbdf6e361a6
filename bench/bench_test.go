package main

import (
	"encoding/json"
	"net"
	"os"
	"regexp"
	"testing"
	"time"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/wire"
)

// smallSizes run the four workloads' real code paths on inputs small
// enough for the whole package to test in a few seconds.
var smallSizes = sizes{
	joinPairs: 2, joinSize: 300,
	servedCollections: 2, servedSize: 500, servedWindows: 128,
	round: roundSpec{base: 128, chunks: 2, chunk: 64, tail: 16 + 3},
}

func testOptions(t *testing.T, seed int64, trace bool) options {
	return options{
		seed: seed, seconds: 0.09, slices: 2, trace: trace, traceDir: t.TempDir(),
		sizes: smallSizes,
	}
}

// declared is BENCHMARK.json as far as the tests need it.
type declared struct {
	Workloads []struct{ Name string }
	EndToEnd  []declaredMetric `json:"end_to_end"`
	PerLayer  []declaredMetric `json:"per_layer"`
}

type declaredMetric struct{ Name, Unit string }

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestTablesMatchBenchmarkJSON holds metrics.go and BENCHMARK.json in step:
// same workloads, same metric names in the same order, same units.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, d.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []declaredMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, metrics.go %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if got[i].Name != w.name || got[i].Unit != w.unit {
				t.Errorf("%s metric %d: BENCHMARK.json says %s (%s), metrics.go %s (%s)", kind, i, got[i].Name, got[i].Unit, w.name, w.unit)
			}
		}
	}
	same("end_to_end", d.EndToEnd, endToEnd)
	same("per_layer", d.PerLayer, perLayer)
	for name := range exactMetrics {
		found := false
		for _, m := range endToEnd {
			found = found || m.name == name
		}
		if !found {
			t.Errorf("exact metric %s is not an end-to-end metric", name)
		}
	}
}

// TestWorkloadsEmitDeclaredMetrics runs every workload untraced and traced
// and checks that it reports exactly the declared names, well-formed, that
// no end-to-end metric is 0, and that no operation failed.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	wellFormed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(w, testOptions(t, 1, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics reported, %d declared", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s is missing", w.name, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s: %s has unit %q, declared %q", w.name, d.name, m.Unit, d.unit)
				case !wellFormed.MatchString(d.name):
					t.Errorf("%s is not a well-formed metric name", d.name)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %g; it must never be 0", w.name, d.name, m.Value)
				}
			}
			if trace {
				for _, name := range []string{"ledger.residual_share", "harness.trace_overhead_share"} {
					if _, ok := res.Metrics[name]; !ok {
						t.Errorf("%s: traced run lacks %s", w.name, name)
					}
				}
				if open := res.Metrics["harness.open_spans"].Value; open > 0 {
					t.Errorf("%s: %g spans were never ended", w.name, open)
				}
				if lost := res.Metrics["recovery.lost_acked"].Value; lost > 0 {
					t.Errorf("%s: %g acknowledged inserts lost", w.name, lost)
				}
			}
		}
	}
}

// TestCountsRepeatAndFollowSeed: the counted metrics are bit-identical
// across two runs of one seed, and the data-dependent ones move with the
// seed.
func TestCountsRepeatAndFollowSeed(t *testing.T) {
	for _, w := range workloads {
		var runs [3]result
		for i, seed := range []int64{1, 1, 2} {
			var err error
			if runs[i], err = runWorkload(w, testOptions(t, seed, false)); err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
		}
		value := func(run int, name string) float64 { return runs[run].Metrics[name].Value }
		for name := range exactMetrics {
			if a, b := value(0, name), value(1, name); a < b || a > b {
				t.Errorf("%s: %s is %v, then %v, for the same seed", w.name, name, a, b)
			}
		}
		if a, b := value(0, "theta_evals_per_op"), value(2, "theta_evals_per_op"); !(a < b || a > b) {
			t.Errorf("%s: theta_evals_per_op is %v for seed 1 and for seed 2", w.name, a)
		}
	}
}

// TestJoinWorkloadsDifferOnlyInThePool: join-cold does join-hot's Θ work
// exactly, and all of its extra cost is device reads.
func TestJoinWorkloadsDifferOnlyInThePool(t *testing.T) {
	run := func(name string, trace bool) result {
		for _, w := range workloads {
			if w.name == name {
				res, err := runWorkload(w, testOptions(t, 1, trace))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				return res
			}
		}
		t.Fatalf("no workload %s", name)
		return result{}
	}
	hot, cold := run("join-hot", false), run("join-cold", false)
	if a, b := hot.Metrics["theta_evals_per_op"].Value, cold.Metrics["theta_evals_per_op"].Value; a < b || a > b {
		t.Errorf("theta_evals_per_op: join-hot %v, join-cold %v", a, b)
	}
	if a, b := hot.Metrics["page_reads_per_op"].Value, cold.Metrics["page_reads_per_op"].Value; a >= b {
		t.Errorf("page_reads_per_op: join-hot %v is not below join-cold %v", a, b)
	}
	// Once warm, the hot pool never goes to the device.
	if reads := run("join-hot", true).Metrics["storage.disk.reads_per_op"].Value; reads > 0 {
		t.Errorf("join-hot reads %v pages per warm operation, want 0", reads)
	}
	if reads := run("join-cold", true).Metrics["storage.disk.reads_per_op"].Value; reads <= 0 {
		t.Errorf("join-cold reads no pages per operation")
	}
}

// TestWrongAnswerIsAFailedOperation corrupts each oracle in turn: the
// engine's (right) answer then disagrees with it, which the harness must
// report as failed operations and an incorrect run.
func TestWrongAnswerIsAFailedOperation(t *testing.T) {
	o := testOptions(t, 1, false)
	check := func(name string, out outcome, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.failed == 0 {
			t.Errorf("%s: a corrupted answer went unnoticed (%d operations, none failed)", name, out.attempted)
		}
	}

	ji := newJoinInputs(o.seed, o.sizes.joinPairs, o.sizes.joinSize)
	if len(ji.want[0]) == 0 {
		t.Fatal("pair 0 has no matches to corrupt")
	}
	ji.want[0] = ji.want[0][1:]
	out, err := runJoinOn(o, "join-hot", hotPool, ji)
	check("join-hot", out, err)

	si := newServedInputs(o.seed, o.sizes.servedCollections, o.sizes.servedSize, o.sizes.servedWindows)
	si.want[3] = append(si.want[3], o.sizes.servedSize+1)
	out, err = runServedOn(o, si)
	check("select-served", out, err)

	ri := newRoundInputs(o.seed, o.sizes.round)
	ri.want[5] = append(ri.want[5], len(ri.rects))
	out, err = runMixedOn(o, ri)
	check("mixed-rw select", out, err)

	// A twin whose model differs from what was loaded recovers "damaged".
	l, err := ji.load(hotPool, true, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	r0, _ := relationNames(0)
	l.rects[r0] = append([]geom.Rect{world}, l.rects[r0][1:]...)
	if st, err := l.crashAndRecover(); err != nil || st.intact {
		t.Errorf("a twin that recovered other data than its model reports intact=%v, err %v", st.intact, err)
	}

	// A model that expects more durable inserts than the log synced makes
	// the recovered database look as if it had lost them.
	ri = newRoundInputs(o.seed, o.sizes.round)
	_, db, err := runRound(ri, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lost, bad, err := ri.verify(db); err != nil || lost != 0 || bad != 0 {
		t.Errorf("a sound recovery verifies as lost=%d bad=%d err=%v", lost, bad, err)
	}
	ahead := *ri
	ahead.spec.tail += walGroup
	if lost, _, err := ahead.verify(db); err != nil || lost != walGroup {
		t.Errorf("a model %d inserts ahead of the device reports %d lost (err %v)", walGroup, lost, err)
	}
}

func TestQuietDecile(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(40 - i) // 40 … 1
	}
	if got := quiet(xs, true); got < 4 || got > 4 {
		t.Errorf("quiet low end of 1…40 = %v, want the 4th smallest", got)
	}
	if got := quiet(xs, false); got < 37 || got > 37 {
		t.Errorf("quiet high end of 1…40 = %v, want the 4th largest", got)
	}
	if got := quiet([]float64{7, 3, 9}, true); got < 3 || got > 3 {
		t.Errorf("quiet of three values = %v, want the smallest", got)
	}
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got < 0.99 || got > 1.01 {
		// Python: quantiles(range(1, 11), n=4) = [2.75, 5.5, 8.25].
		t.Errorf("iqrShare(1…10) = %v, want 1", got)
	}
}

// TestCountingConnWalksFrames feeds the meter a response stream cut at
// awkward places and checks bytes, frames and phase order.
func TestCountingConnWalksFrames(t *testing.T) {
	client, srv := net.Pipe()
	defer client.Close()
	cc := &countingConn{Conn: client}
	var stream []byte
	for i, payload := range [][]byte{wire.EncodeIDs([]int{1, 2, 3}), nil, wire.EncodeIDs(make([]int, 100))} {
		stream = wire.AppendFrame(stream, wire.Frame{Type: wire.TypeIDs, Request: uint64(i + 1), Payload: payload})
	}
	request := wire.AppendFrame(nil, wire.Frame{Type: wire.TypePing, Request: 9})
	go func() {
		defer srv.Close()
		buf := make([]byte, len(request))
		if _, err := srv.Read(buf); err != nil {
			return
		}
		// Cut inside a header, one byte past it, and inside a payload.
		from := 0
		for _, to := range []int{1, 25, 50, 110, len(stream)} {
			if _, err := srv.Write(stream[from:to]); err != nil {
				return
			}
			from = to
		}
	}()
	start := time.Now()
	if _, err := cc.Write(request); err != nil {
		t.Fatal(err)
	}
	total, buf := 0, make([]byte, 64)
	for {
		n, err := cc.Read(buf)
		total += n
		if err != nil {
			break
		}
	}
	bytesMoved, frames := cc.totals()
	if want := int64(len(request) + total); bytesMoved != want {
		t.Errorf("metered %d bytes, moved %d", bytesMoved, want)
	}
	if frames != 4 {
		t.Errorf("metered %d frames, want 1 request + 3 responses", frames)
	}
	phases := cc.phases(start)
	if len(phases) != 3 || phases[0].Name != "conn.write" || phases[2].Name != "conn.last_byte" {
		t.Fatalf("phases = %+v", phases)
	}
	if phases[1].Start < phases[0].Start || phases[2].Start < phases[1].Start {
		t.Errorf("socket phases out of order: %+v", phases)
	}
}
