package join

import (
	"context"
	"testing"

	"spatialjoin/internal/pred"
)

// TestParallelStrategiesMatchSequential checks the invariant of strategy
// I's worker fan-out: every worker count returns the exact sequential
// result — same matches in canonical order, same θ count. Only page reads
// may drift, since concurrent workers interleave on the shared LRU pool.
func TestParallelStrategiesMatchSequential(t *testing.T) {
	pool := newPool(t, 64)
	r := newFixture(t, pool, 21, 4, 3, 0)
	s := newFixture(t, pool, 22, 4, 3, 0)
	op := pred.Overlaps{}

	wantNL, nlStats, err := NestedLoop(context.Background(), r.table, s.table, op, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantNL) == 0 {
		t.Fatal("workload produced no matches")
	}

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
	}
}

// TestParallelJoinSeparatePools exercises the two-pool path of the tree
// join: each side measures its own pool, and a cold join reads pages.
func TestParallelJoinSeparatePools(t *testing.T) {
	r := newFixture(t, newPool(t, 32), 23, 3, 3, 0)
	s := newFixture(t, newPool(t, 32), 24, 3, 3, 0)
	r.table.Pool.DropAll()
	s.table.Pool.DropAll()
	op := pred.Overlaps{}
	_, stats, err := TreeJoin(context.Background(), r.tree, r.table, s.tree, s.table, op)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PageReads == 0 {
		t.Error("cold tree join measured no page reads")
	}
}
