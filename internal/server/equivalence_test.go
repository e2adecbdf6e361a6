package server_test

// Wire-level equivalence harness (the network counterpart of the root
// package's cross-strategy harness): N concurrent clients, each
// pipelining M JOIN and SELECT requests over one loopback connection,
// must every time receive the byte-identical canonical answer the
// in-process API returns — at worker counts 1 and 4, across all three
// strategies, with result streaming forced through multiple frames.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"spatialjoin"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/server"
	"spatialjoin/internal/wire"
)

func TestWireEquivalence(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			db, r, s := newServerDB(t, true, func(c *spatialjoin.Config) {
				c.Workers = workers
			})

			// In-process ground truth, canonical (R, S)-sorted.
			wantJoin, _, err := db.Join(r, s, spatialjoin.Overlaps(), spatialjoin.ScanStrategy)
			if err != nil {
				t.Fatal(err)
			}
			if len(wantJoin) == 0 {
				t.Fatal("workload produced no matches")
			}
			probe := geom.NewRect(100, 100, 450, 450)
			wantSel, _, err := db.Select(s, probe, spatialjoin.Overlaps(), spatialjoin.TreeStrategy)
			if err != nil {
				t.Fatal(err)
			}
			if len(wantSel) == 0 {
				t.Fatal("probe selected nothing")
			}

			reg := obs.NewRegistry()
			// BatchSize far below the result count forces every response
			// through multiple streamed frames. AdmitWait is generous: this
			// harness asserts equivalence, not shedding, so bursts beyond
			// MaxQueries must queue briefly instead of being refused.
			_, addr := startServer(t, db, server.Options{
				Metrics:   reg,
				BatchSize: 7,
				AdmitWait: 30 * time.Second,
			})

			strategies := []uint8{wire.StrategyScan, wire.StrategyTree, wire.StrategyIndex}
			const clients, perClient = 4, 8
			ctx := context.Background()
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				cli := dialClient(t, addr)
				for q := 0; q < perClient; q++ {
					wg.Add(1)
					go func(c, q int, cli *wire.Client) {
						defer wg.Done()
						label := fmt.Sprintf("client %d query %d", c, q)
						if q%2 == 0 {
							res, err := cli.Join(ctx, "r", "s", wire.Overlaps(), strategies[q%len(strategies)])
							if err != nil {
								t.Errorf("%s: %v", label, err)
								return
							}
							if res.Status != wire.StatusOK {
								t.Errorf("%s: status %s", label, res.Status)
								return
							}
							assertSameMatches(t, label, res.Matches, wantJoin)
						} else {
							res, err := cli.Select(ctx, "s", probe, wire.Overlaps(), wire.StrategyTree)
							if err != nil {
								t.Errorf("%s: %v", label, err)
								return
							}
							if res.Status != wire.StatusOK {
								t.Errorf("%s: status %s", label, res.Status)
								return
							}
							assertSameIDs(t, label, res.IDs, wantSel)
						}
					}(c, q, cli)
				}
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			// Exact outcome accounting: every query finished OK, nothing
			// was shed, and the latency histogram saw each one.
			total := int64(clients * perClient)
			// A client sees its verdict before the serving goroutine
			// observes the latency and releases the query slot.
			latency := reg.Histogram("spatialjoin_server_query_seconds", "", nil)
			activeQ := reg.Gauge("spatialjoin_server_active_queries", "")
			waitFor(t, "query bookkeeping to settle", func() bool {
				return latency.Count() == total && activeQ.Value() == 0
			})
			joins := queriesTotal(reg, "join", wire.StatusOK)
			sels := queriesTotal(reg, "select", wire.StatusOK)
			if joins+sels != total {
				t.Errorf("queries_total ok: %d joins + %d selects, want %d", joins, sels, total)
			}
			if shed := reg.Counter("spatialjoin_server_queries_shed_total", "").Value(); shed != 0 {
				t.Errorf("queries_shed_total = %d, want 0", shed)
			}
			if n := latency.Count(); n != total {
				t.Errorf("latency histogram count = %d, want %d", n, total)
			}
			if got := reg.Counter("spatialjoin_server_connections_total", "").Value(); got != clients {
				t.Errorf("connections_total = %d, want %d", got, clients)
			}
			if q := activeQ.Value(); q != 0 {
				t.Errorf("active_queries settled at %d, want 0", q)
			}
		})
	}
}

// TestWirePipelinedOrderIndependence issues interleaved fast pings and
// slow joins on one connection and asserts every response is correlated
// to its request: the ping issued after a join must not be blocked by or
// confused with the join's streamed frames.
func TestWirePipelinedOrderIndependence(t *testing.T) {
	db, r, s := newServerDB(t, false, nil)
	wantJoin, _, err := db.Join(r, s, spatialjoin.Overlaps(), spatialjoin.ScanStrategy)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startServer(t, db, server.Options{BatchSize: 3, AdmitWait: 30 * time.Second})
	cli := dialClient(t, addr)
	ctx := context.Background()

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				res, err := cli.Join(ctx, "r", "s", wire.Overlaps(), wire.StrategyScan)
				if err != nil {
					t.Errorf("join %d: %v", i, err)
					return
				}
				if res.Status != wire.StatusOK {
					t.Errorf("join %d: status %s", i, res.Status)
					return
				}
				assertSameMatches(t, fmt.Sprintf("join %d", i), res.Matches, wantJoin)
			} else if err := cli.Ping(ctx); err != nil {
				t.Errorf("ping %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
}
