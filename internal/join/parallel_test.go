package join

import (
	"context"
	"testing"

	"spatialjoin/internal/core"
	"spatialjoin/internal/pred"
)

// TestParallelStrategiesMatchSequential checks the tentpole invariant of
// the execution engine: for every strategy, every worker count returns the
// exact sequential result — same matches, same predicate-evaluation
// counts. Only page reads may drift, since concurrent workers interleave
// on the shared LRU pool.
func TestParallelStrategiesMatchSequential(t *testing.T) {
	pool := newPool(t, 64)
	r := newFixture(t, pool, 21, 4, 3, 0)
	s := newFixture(t, pool, 22, 4, 3, 0)
	op := pred.Overlaps{}

	wantNL, nlStats, err := NestedLoop(context.Background(), r.table, s.table, op, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantTJ, tjStats, err := TreeJoin(context.Background(), r.tree, r.table, s.tree, s.table, op, 1)
	if err != nil {
		t.Fatal(err)
	}
	ix, _, err := BuildIndex(r.table, s.table, op, 50)
	if err != nil {
		t.Fatal(err)
	}
	wantIJ, _, err := IndexJoin(context.Background(), ix, r.table, s.table, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantNL) == 0 {
		t.Fatal("workload produced no matches")
	}
	equalMatchSets(t, "nested-loop vs tree", append([]core.Match(nil), wantNL...),
		append([]core.Match(nil), wantTJ...))

	for _, workers := range []int{2, 3, 8, 0} {
		got, stats, err := NestedLoop(context.Background(), r.table, s.table, op, workers)
		if err != nil {
			t.Fatal(err)
		}
		equalMatchSets(t, "nested loop", got, wantNL)
		if stats.ExactEvals != nlStats.ExactEvals {
			t.Errorf("nested loop workers=%d: %d exact evals, want %d",
				workers, stats.ExactEvals, nlStats.ExactEvals)
		}
		for i := range got {
			if got[i] != wantNL[i] {
				t.Fatalf("nested loop workers=%d: result not canonically ordered at %d", workers, i)
			}
		}

		got, stats, err = TreeJoin(context.Background(), r.tree, r.table, s.tree, s.table, op, workers)
		if err != nil {
			t.Fatal(err)
		}
		equalMatchSets(t, "tree join", got, wantTJ)
		if stats.FilterEvals != tjStats.FilterEvals || stats.ExactEvals != tjStats.ExactEvals {
			t.Errorf("tree join workers=%d: evals (%d,%d), want (%d,%d)", workers,
				stats.FilterEvals, stats.ExactEvals, tjStats.FilterEvals, tjStats.ExactEvals)
		}

		got, _, err = IndexJoin(context.Background(), ix, r.table, s.table, workers)
		if err != nil {
			t.Fatal(err)
		}
		equalMatchSets(t, "index join", got, wantIJ)
	}
}

// TestParallelJoinSeparatePools exercises the two-pool path of the tree
// join under parallel expansion: each side measures its own pool.
func TestParallelJoinSeparatePools(t *testing.T) {
	r := newFixture(t, newPool(t, 32), 23, 3, 3, 0)
	s := newFixture(t, newPool(t, 32), 24, 3, 3, 0)
	r.table.Pool.DropAll()
	s.table.Pool.DropAll()
	op := pred.Overlaps{}
	want, wantStats, err := TreeJoin(context.Background(), r.tree, r.table, s.tree, s.table, op, 1)
	if err != nil {
		t.Fatal(err)
	}
	if wantStats.PageReads == 0 {
		t.Error("cold tree join measured no page reads")
	}
	got, _, err := TreeJoin(context.Background(), r.tree, r.table, s.tree, s.table, op, 4)
	if err != nil {
		t.Fatal(err)
	}
	equalMatchSets(t, "separate pools", got, want)
}
