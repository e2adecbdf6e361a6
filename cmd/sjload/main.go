// Command sjload drives a running sjoind with closed-loop query load and
// records the saturation/latency curve: at each swept connection count it
// reports throughput, per-status outcome counts, and latency quantiles of
// the served queries, so the admission-control knee — where excess load
// turns into fast typed SERVER_BUSY refusals instead of queueing — is
// visible in one table.
//
// Usage:
//
//	sjload -addr 127.0.0.1:7654 -curve 1,2,4,8,16,32 -duration 3s
//	sjload -conns 8 -kind select -strategy tree
//
// With -trace, sjload instead issues a single traced query: the trace ID
// is propagated to the server inside the request frame, the server's
// spans (admission wait, engine execution with per-level reads, result
// streaming) come back on the DONE verdict, and sjload prints the merged
// end-to-end span tree plus the read-sum identity — the per-level reads
// in the server's spans telescoping to the PageReads the verdict reports.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sjload:", err)
		os.Exit(1)
	}
}

// tally accumulates one load level's outcomes.
type tally struct {
	mu        sync.Mutex
	byStatus  map[wire.Status]int64
	transport int64
	served    []time.Duration // latency of queries that reached the engine
	shed      []time.Duration // latency of typed refusals
}

func (tl *tally) record(status wire.Status, shed bool, d time.Duration) {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.byStatus[status]++
	if shed {
		tl.shed = append(tl.shed, d)
	} else {
		tl.served = append(tl.served, d)
	}
}

func run() error {
	addr := flag.String("addr", "127.0.0.1:7654", "sjoind wire address")
	curve := flag.String("curve", "", "comma-separated connection counts to sweep (overrides -conns)")
	conns := flag.Int("conns", 4, "concurrent connections, one in-flight query each")
	duration := flag.Duration("duration", 3*time.Second, "measurement window per load level")
	kind := flag.String("kind", "join", "query kind: join, select, or mix")
	strategy := flag.String("strategy", "tree", "strategy: tree, scan, or index")
	sel := flag.Float64("selectivity", 0.2, "with select queries: probe window as a fraction of the world")
	world := flag.Float64("world", 10000, "world side length the server was started with")
	trace := flag.Bool("trace", false, "issue one traced query and print the merged client+server span tree instead of sweeping load")
	flag.Parse()

	strat, err := parseStrategy(*strategy)
	if err != nil {
		return err
	}
	if *trace {
		return tracedQuery(*addr, *kind, strat, *sel, *world)
	}
	levels := []int{*conns}
	if *curve != "" {
		levels = levels[:0]
		for _, part := range strings.Split(*curve, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				return fmt.Errorf("bad -curve element %q", part)
			}
			levels = append(levels, n)
		}
	}

	// One warmup query populates the server's buffer pool so every level
	// measures steady state, not the first cold descent.
	if err := warmup(*addr, strat); err != nil {
		return fmt.Errorf("warmup: %w", err)
	}

	tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "conns\tqps\tok\tdegraded\tbusy\ttimeout\tother\tp50\tp95\tp99\tshed_p99")
	for _, n := range levels {
		tl, err := drive(*addr, n, *duration, *kind, strat, *sel, *world)
		if err != nil {
			return err
		}
		report(tw, n, *duration, tl)
	}
	return tw.Flush()
}

// tracedQuery issues one traced query and prints the merged span tree:
// the client-side wire span with the server's spans grafted under it, the
// propagated trace ID (the same 16 hex digits the server's flight
// recorder and /debug/events dump carry), and the read-sum identity.
func tracedQuery(addr, kind string, strat uint8, sel, world float64) error {
	cli, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	ctx, tr := obs.WithTrace(ctx)

	var res wire.Result
	if kind == "select" {
		probe := geom.NewRect(0, 0, world*sel, world*sel)
		res, err = cli.Select(ctx, "s", probe, wire.Overlaps(), strat)
	} else {
		res, err = cli.Join(ctx, "r", "s", wire.Overlaps(), strat)
	}
	if err != nil {
		return err
	}
	if err := res.Err(); err != nil {
		return err
	}
	results := len(res.Matches)
	if kind == "select" {
		results = len(res.IDs)
	}
	fmt.Printf("trace id: %016x\n", tr.ID())
	fmt.Printf("status %s, %d results, %d page reads\n", res.Status, results, res.Stats.PageReads)
	if err := tr.WriteTree(os.Stdout); err != nil {
		return err
	}
	var levelReads int64
	for _, sp := range tr.SpansNamed("level") {
		if v, ok := sp.IntAttr("reads"); ok {
			levelReads += v
		}
	}
	fmt.Printf("read-sum identity: level reads %d, Stats.PageReads %d", levelReads, res.Stats.PageReads)
	if levelReads == res.Stats.PageReads {
		fmt.Println(" (exact)")
	} else {
		fmt.Println(" (MISMATCH)")
		return fmt.Errorf("per-level reads %d do not telescope to PageReads %d", levelReads, res.Stats.PageReads)
	}
	if len(res.Spans) == 0 {
		return fmt.Errorf("server returned no spans; is it running a pre-trace build?")
	}
	return nil
}

func parseStrategy(s string) (uint8, error) {
	switch s {
	case "tree":
		return wire.StrategyTree, nil
	case "scan":
		return wire.StrategyScan, nil
	case "index":
		return wire.StrategyIndex, nil
	default:
		return 0, fmt.Errorf("unknown strategy %q", s)
	}
}

func warmup(addr string, strat uint8) error {
	cli, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := cli.Join(ctx, "r", "s", wire.Overlaps(), strat)
	if err != nil {
		return err
	}
	if err := res.Err(); err != nil {
		return err
	}
	return nil
}

// drive runs one load level: n connections, each a closed loop issuing
// one query at a time for the whole window.
func drive(addr string, n int, window time.Duration, kind string, strat uint8, sel, world float64) (*tally, error) {
	tl := &tally{byStatus: make(map[wire.Status]int64)}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	dialErr := make(chan error, n)
	for i := 0; i < n; i++ {
		cli, err := wire.Dial(addr)
		if err != nil {
			close(stop)
			wg.Wait()
			return nil, err
		}
		wg.Add(1)
		go func(i int, cli *wire.Client) {
			defer wg.Done()
			defer cli.Close()
			worker(stop, tl, cli, i, kind, strat, sel, world, dialErr)
		}(i, cli)
	}
	time.Sleep(window)
	close(stop)
	wg.Wait()
	select {
	case err := <-dialErr:
		return nil, err
	default:
	}
	return tl, nil
}

// worker is one closed-loop connection: query, record, repeat.
func worker(stop <-chan struct{}, tl *tally, cli *wire.Client, i int, kind string, strat uint8, sel, world float64, fatal chan<- error) {
	ctx := context.Background()
	probe := geom.NewRect(0, 0, world*sel, world*sel)
	for q := 0; ; q++ {
		select {
		case <-stop:
			return
		default:
		}
		doJoin := kind == "join" || (kind == "mix" && (i+q)%2 == 0)
		start := time.Now()
		var res wire.Result
		var err error
		if doJoin {
			res, err = cli.Join(ctx, "r", "s", wire.Overlaps(), strat)
		} else {
			res, err = cli.Select(ctx, "s", probe, wire.Overlaps(), strat)
		}
		took := time.Since(start)
		if err != nil {
			tl.mu.Lock()
			tl.transport++
			tl.mu.Unlock()
			select {
			case fatal <- err:
			default:
			}
			return
		}
		tl.record(res.Status, res.Flags&wire.FlagShed != 0, took)
	}
}

// quantile returns the q-quantile of sorted latencies, or 0 when empty.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func report(tw *tabwriter.Writer, n int, window time.Duration, tl *tally) {
	sort.Slice(tl.served, func(i, j int) bool { return tl.served[i] < tl.served[j] })
	sort.Slice(tl.shed, func(i, j int) bool { return tl.shed[i] < tl.shed[j] })
	var total int64
	for _, c := range tl.byStatus {
		total += c
	}
	other := total - tl.byStatus[wire.StatusOK] - tl.byStatus[wire.StatusDegraded] -
		tl.byStatus[wire.StatusServerBusy] - tl.byStatus[wire.StatusTimeout]
	fmt.Fprintf(tw, "%d\t%.0f\t%d\t%d\t%d\t%d\t%d\t%s\t%s\t%s\t%s\n",
		n,
		float64(total)/window.Seconds(),
		tl.byStatus[wire.StatusOK],
		tl.byStatus[wire.StatusDegraded],
		tl.byStatus[wire.StatusServerBusy],
		tl.byStatus[wire.StatusTimeout],
		other,
		quantile(tl.served, 0.50).Round(10*time.Microsecond),
		quantile(tl.served, 0.95).Round(10*time.Microsecond),
		quantile(tl.served, 0.99).Round(10*time.Microsecond),
		quantile(tl.shed, 0.99).Round(10*time.Microsecond),
	)
}
