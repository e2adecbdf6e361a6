package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"spatialjoin"
	"spatialjoin/internal/geom"
)

// The join workloads run R ⋈ S, overlaps, tree strategy, on sizes.joinPairs
// independent pairs of a uniform R and a clustered S of sizes.joinSize
// rects each (sjoind's default data). One operation joins one pair; a cycle
// joins every pair once. Several pairs, because the work of one tree join
// swings by ±7 % with the shape its R-trees happened to take: averaged
// over a cycle the seed matters about three times less.
const (
	// hotPool holds every page of every pair (≈2200); coldPool is about
	// 1/14 of the ≈280 pages one join touches.
	hotPool  = 4096
	coldPool = 16
)

type joinInputs struct {
	rs, ss [][]geom.Rect
	want   [][]spatialjoin.Match
}

func newJoinInputs(seed int64, pairs, size int) *joinInputs {
	in := &joinInputs{}
	for p := 0; p < pairs; p++ {
		rng := subSeed(seed, p)
		rs, ss := uniformRects(rng, size), clusteredRects(rng, size)
		in.rs, in.ss = append(in.rs, rs), append(in.ss, ss)
		in.want = append(in.want, overlapJoin(rs, ss))
	}
	return in
}

func relationNames(p int) (r, s string) { return fmt.Sprintf("r%02d", p), fmt.Sprintf("s%02d", p) }

// load opens a database with the given pool and loads the given pairs.
func (in *joinInputs) load(bufferPages int, logged bool, pairs []int) (*load, error) {
	l, err := startLoad(bufferPages, logged)
	if err != nil {
		return nil, err
	}
	for _, p := range pairs {
		r, s := relationNames(p)
		if _, err := l.add(r, in.rs[p]); err != nil {
			return nil, err
		}
		if _, err := l.add(s, in.ss[p]); err != nil {
			return nil, err
		}
	}
	return l, l.finish()
}

// start makes a database loaded with every pair the system under test.
func (in *joinInputs) start(db *spatialjoin.Database) (*system, error) {
	var rs, ss []*spatialjoin.Collection
	for p := range in.rs {
		rName, sName := relationNames(p)
		r, rOK := db.Collection(rName)
		s, sOK := db.Collection(sName)
		if !rOK || !sOK {
			return nil, fmt.Errorf("pair %d is not loaded", p)
		}
		rs, ss = append(rs, r), append(ss, s)
	}
	return &system{
		db:         db,
		kind:       "harness.join",
		traceEvery: 1,
		cycle:      len(rs),
		call: func(ctx context.Context, p int) (time.Duration, spatialjoin.Stats, bool, error) {
			t0 := time.Now()
			got, stats, err := db.JoinContext(ctx, rs[p], ss[p], spatialjoin.Overlaps(), spatialjoin.TreeStrategy)
			lat := time.Since(t0)
			return lat, stats, err == nil && slices.Equal(got, in.want[p]), err
		},
		stop: func() error { return nil },
	}, nil
}

// runJoin is join-hot (pool holds everything) or join-cold (pool of 16).
func runJoin(o options, name string, bufferPages int) (outcome, error) {
	return runJoinOn(o, name, bufferPages, newJoinInputs(o.seed, o.sizes.joinPairs, o.sizes.joinSize))
}

// runJoinOn runs a join workload on given inputs.
func runJoinOn(o options, name string, bufferPages int, in *joinInputs) (outcome, error) {
	return runRead(o, readBench{
		name:  name,
		parts: len(in.rs),
		load:  func(logged bool, pairs []int) (*load, error) { return in.load(bufferPages, logged, pairs) },
		start: in.start,
		ledger: func(sys *system, t *tracer, into values, total counters, work spatialjoin.Stats, ops int, opNS float64) error {
			r0, _ := sys.db.Collection("r00")
			if err := storageLedger(r0, into, total, work, ops, opNS, in.rs[0], in.ss[0]); err != nil {
				return err
			}
			return joinProbes(in.rs[0], in.ss[0], into)
		},
	})
}
