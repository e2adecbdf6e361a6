package server_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"spatialjoin"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/server"
	"spatialjoin/internal/wire"
)

// TestConcurrentClientsReadsSumToPoolMisses drives one server from
// several clients at once — tree joins, a scan join and tree selects over
// four collections on a 16-frame pool, so the queries evict each other's
// pages — and checks that the PageReads their Done frames report sum to
// the server pool's misses over the window: each query is charged the
// misses its own reads caused, and no miss is charged twice or dropped.
func TestConcurrentClientsReadsSumToPoolMisses(t *testing.T) {
	cfg := spatialjoin.DefaultConfig()
	cfg.BufferPages = 16
	cfg.Workers = 2
	db, err := spatialjoin.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = db.Close() })
	world := geom.NewRect(0, 0, 1000, 1000)
	names := []string{"a", "b", "c", "d"}
	for i, name := range names {
		col, err := db.CreateCollection(name)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(i + 1)))
		for _, rect := range datagen.UniformRects(rng, 600, world, 2, 40) {
			if _, err := col.Insert(rect, ""); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, addr := startServer(t, db, server.Options{})
	clients := make([]*wire.Client, 4)
	for i := range clients {
		clients[i] = dialClient(t, addr)
	}
	if err := db.DropCache(); err != nil {
		t.Fatal(err)
	}

	before := db.IOStats().Misses
	reads := make([]int64, len(clients))
	errs := make([]error, len(clients))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			ctx := context.Background()
			r, s := names[i], names[(i+1)%len(names)]
			queries := []func() (wire.Result, error){
				func() (wire.Result, error) { return c.Join(ctx, r, s, wire.Overlaps(), wire.StrategyTree) },
				func() (wire.Result, error) {
					return c.Select(ctx, r, geom.NewRect(float64(100*i), 200, float64(100*i+300), 500), wire.Overlaps(), wire.StrategyTree)
				},
				func() (wire.Result, error) { return c.Join(ctx, s, r, wire.Overlaps(), wire.StrategyTree) },
			}
			if i == 0 {
				queries = append(queries, func() (wire.Result, error) {
					return c.Join(ctx, r, s, wire.Overlaps(), wire.StrategyScan)
				})
			}
			for _, q := range queries {
				res, err := q()
				if err == nil {
					err = res.Err()
				}
				if err != nil {
					errs[i] = fmt.Errorf("client %d: %w", i, err)
					return
				}
				reads[i] += res.Stats.PageReads
			}
		}()
	}
	close(start)
	wg.Wait()
	misses := db.IOStats().Misses - before
	var sum int64
	for i := range clients {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		sum += reads[i]
	}
	if misses == 0 {
		t.Fatal("the pool missed nothing: the check is vacuous")
	}
	if sum != misses {
		t.Errorf("Done frames report %d page reads in all, the server pool missed %d", sum, misses)
	}
}
