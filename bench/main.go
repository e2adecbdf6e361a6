// Command bench is the repository's benchmark: four single-core workloads
// measured from outside, through the public functions of the root package
// and the internal layers. One run prints one workload's metrics as the
// last line of its output; README.md defines every metric and says how to
// read them.
//
//	go run . -workload join-hot            (from this directory)
//	go run . -workload all -trace 1
//	go run . -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"spatialjoin"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(o options) (outcome, error)
}

var workloads = []workload{
	{"join-hot", func(o options) (outcome, error) { return runJoin(o, "join-hot", hotPool) }},
	{"join-cold", func(o options) (outcome, error) { return runJoin(o, "join-cold", coldPool) }},
	{"select-served", runServed},
	{"mixed-rw", runMixed},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("bench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	name := flags.String("workload", "all", "workload to run: "+workloadNames()+", or all")
	seed := flags.Int64("seed", 1, "seed of the generated inputs")
	seconds := flags.Float64("seconds", 20, "measuring time of one run")
	slices := flags.Int("slices", 0, "measured slices, for mixed-rw the fewest measured rounds (0: 40 and 8)")
	trace := flags.Int("trace", 0, "1: the traced run, which reports the per-layer metrics")
	traceDir := flags.String("tracedir", ".bench_build", "where a traced run writes trace-<workload>.json")
	selfcheck := flags.Bool("selfcheck", false, "run the whole benchmark twice and compare the runs against the bounds")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if flags.NArg() > 0 || *seconds <= 0 || *slices < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments; see -help")
		return 2
	}
	// One core: the benchmark measures the program, not the scheduler.
	runtime.GOMAXPROCS(1)
	o := options{
		seed: *seed, seconds: *seconds, slices: *slices, trace: *trace == 1, traceDir: *traceDir, warn: stderr,
		sizes: fullSizes,
	}
	if *selfcheck {
		return selfCheck(o, stdout, stderr)
	}

	selected := workloads
	if *name != "all" {
		selected = nil
		for _, w := range workloads {
			if w.name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q; have %s\n", *name, workloadNames())
			return 2
		}
	}
	code := 0
	for _, w := range selected {
		res, err := runWorkload(w, o)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if len(selected) > 1 {
			fmt.Fprintf(stdout, "# %s\n", w.name)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			fmt.Fprintf(stderr, "bench: %s: %d of %d operations failed\n", w.name, res.Failed, res.Attempted)
			code = 1
		}
	}
	return code
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runWorkload runs w and renders its outcome as the declared metric set:
// the end-to-end metrics of an untraced run, the per-layer metrics of a
// traced one.
func runWorkload(w workload, o options) (result, error) {
	out, err := w.run(o)
	if err != nil {
		return result{}, err
	}
	if out.disturbed > 0.5 && o.warn != nil {
		// So that a reader of an odd number knows the box, not the code, moved.
		fmt.Fprintf(o.warn, "bench: %s: %.0f%% of slices ran beside a slow noise guard; the machine is busy\n", w.name, 100*out.disturbed)
	}
	defs := perLayer
	if !o.trace {
		defs = endToEnd
		printTimings(w.name, out.vals, o.warn)
	}
	metrics, err := report(defs, out.vals)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", w.name, err)
	}
	return result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   metrics,
	}, nil
}

// printTimings takes the timings out of an untraced run's vals and prints
// them, in the per-layer table's order, as one line to w.
func printTimings(workload string, vals values, w io.Writer) {
	var line strings.Builder
	for _, d := range perLayer {
		v, ok := vals[d.name]
		if !ok || !strings.HasPrefix(d.name, timingPrefix) {
			continue
		}
		delete(vals, d.name)
		fmt.Fprintf(&line, " %s=%.6g[%s]", strings.TrimPrefix(d.name, timingPrefix), v, d.unit)
	}
	if w != nil && line.Len() > 0 {
		fmt.Fprintf(w, "bench: %s: timings (no bound):%s\n", workload, line.String())
	}
}

// Without -slices a read workload measures defaultSlices slices and
// mixed-rw at least defaultRounds rounds.
const (
	defaultSlices = 40
	minSlices     = 8
	defaultRounds = 8
	// maxLaps is how many times an untraced read workload builds its system
	// and measures it, when it measures that many slices.
	maxLaps = 8
)

// runMixed is the mixed-rw workload: a warm-up round, then measured
// lifecycle rounds — each a fresh database — until the measuring time is
// spent, at least -slices of them. The rounds' chunks condense like a read
// workload's slices; the counted metrics must be identical in every round.
func runMixed(o options) (outcome, error) {
	return runMixedOn(o, newRoundInputs(o.seed, o.sizes.round))
}

// runMixedOn runs mixed-rw on given inputs.
func runMixedOn(o options, in *roundInputs) (outcome, error) {
	out := outcome{vals: values{}}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	if _, _, err := runRound(in, nil); err != nil {
		return out, fmt.Errorf("warm-up round: %w", err)
	}
	atLeast := o.slices
	if atLeast == 0 {
		atLeast = defaultRounds
	}

	if o.trace {
		t := newTracer(microTraceEvery)
		var plain, traced rounds
		var db *spatialjoin.Database
		for len(plain) < max(atLeast/4, 1) || (time.Now().Before(deadline) && len(plain) < 4*defaultRounds) {
			st, _, err := runRound(in, nil)
			if err != nil {
				return out, err
			}
			plain = append(plain, st)
			if st, db, err = runRound(in, t); err != nil {
				return out, err
			}
			traced = append(traced, st)
		}
		plain.tally(&out)
		traced.tally(&out)
		if err := mixedLedger(in, t, plain, traced, db, out.vals); err != nil {
			return out, err
		}
		return out, t.write(o.traceDir, "mixed-rw")
	}

	var rs rounds
	var setups, heaps []float64
	for len(rs) < atLeast || (time.Now().Before(deadline) && len(rs) < 8*defaultRounds) {
		st, _, err := runRound(in, nil)
		if err != nil {
			return out, err
		}
		if len(rs) > 0 && !sameCounts(st, rs[0]) {
			return out, fmt.Errorf("round %d counted differently from round 0: the workload is not deterministic", len(rs))
		}
		rs = append(rs, st)
		setups = append(setups, st.setup.Seconds())
		heaps = append(heaps, st.liveHeap)
	}
	rs.tally(&out)
	first, ops := rs[0], float64(rs[0].ops())
	out.vals["setup_s"] = quiet(setups, true)
	allocation(rs.chunks(), out.vals)
	timing(rs.chunks(), out.vals)
	writeTiming(rs.chunks(), out.vals)
	out.vals["timing.recover_s"] = rs.recoverTime()
	out.vals["write_amp"] = first.writeAmp(in.spec)
	out.vals["space_amp"] = first.spaceAmp(in.spec)
	out.vals["page_reads_per_op"] = float64(first.devReads) / ops
	out.vals["theta_evals_per_op"] = float64(first.evals.FilterEvals+first.evals.ExactEvals) / ops
	out.vals["live_heap_mb"] = median(heaps)
	out.disturbed = disturbedShare(rs.chunks())
	return out, nil
}

// sameCounts reports whether two rounds of the same inputs counted the
// same work at every boundary.
func sameCounts(a, b roundStat) bool {
	return a.ops() == b.ops() && a.evals == b.evals && a.phase == b.phase &&
		a.devReads == b.devReads && a.devWrites == b.devWrites && a.devPages == b.devPages
}
