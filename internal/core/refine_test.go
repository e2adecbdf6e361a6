package core_test

import (
	"cmp"
	"context"
	"errors"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"spatialjoin/internal/core"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/pred"
	"spatialjoin/internal/rtree"
)

// rtreePair returns the generalizations of two R-trees of n uniform
// rectangles each, tuple IDs in insertion order, so that the items under a
// leaf carry scattered IDs. Their heights are equal: every θ is then on a
// pair of items, and every pair of items is decided by the refinement.
func rtreePair(t *testing.T, n int) (core.Tree, core.Tree) {
	t.Helper()
	world := geom.NewRect(0, 0, 1000, 1000)
	build := func(seed int64) core.Tree {
		rt := rtree.MustNew(rtree.DefaultOptions())
		for i, r := range datagen.UniformRects(rand.New(rand.NewSource(seed)), n, world, 2, 30) {
			rt.Insert(r, i)
		}
		return rt.Generalization()
	}
	tr, ts := build(3), build(4)
	if tr.Height() != ts.Height() {
		t.Fatalf("heights %d and %d: item pairs form only between trees of equal height",
			tr.Height(), ts.Height())
	}
	return tr, ts
}

// readRect is the reader of a rectangle-only test tree: a rectangle is its
// own MBR, so the tuple an item references is the rectangle it stores. A
// read with no dst is one whose value the node carries, and builds none.
func readRect(n core.Node, dst *geom.Rect) (geom.Spatial, error) {
	if dst == nil {
		return nil, nil
	}
	*dst = n.Bounds()
	return dst, nil
}

// TestReferenceOnlyNodeWithoutReaderFails runs a join and a selection over
// R-trees, whose items store only their MBRs, with no reader: θ has no
// operand, so both fail instead of evaluating θ on the MBR. With readers
// they succeed and find matches.
func TestReferenceOnlyNodeWithoutReaderFails(t *testing.T) {
	tr, ts := rtreePair(t, 200)
	if _, err := core.Join(tr, ts, pred.Overlaps{}, nil); err == nil {
		t.Error("a join over R-trees with no reader succeeded")
	}
	if _, err := core.Join(tr, ts, pred.Overlaps{}, &core.JoinOptions{ReadR: readRect}); err == nil {
		t.Error("a join over R-trees with no S reader succeeded")
	}
	window := geom.NewRect(0, 0, 500, 500)
	if _, err := core.Select(tr, window, pred.Overlaps{}, nil); err == nil {
		t.Error("a selection over an R-tree with no reader succeeded")
	}
	res, err := core.Join(tr, ts, pred.Overlaps{}, &core.JoinOptions{ReadR: readRect, ReadS: readRect})
	if err != nil || len(res.Pairs) == 0 {
		t.Fatalf("join with readers: %d matches, err %v", len(res.Pairs), err)
	}
	sel, err := core.Select(tr, window, pred.Overlaps{}, &core.SelectOptions{Read: readRect})
	if err != nil || len(sel.Tuples) == 0 {
		t.Fatalf("selection with a reader: %d matches, err %v", len(sel.Tuples), err)
	}
}

func compareMatches(a, b core.Match) int {
	if c := cmp.Compare(a.R, b.R); c != 0 {
		return c
	}
	return cmp.Compare(a.S, b.S)
}

// TestJoinRefinesInTupleOrder joins two R-tree generalizations at one
// worker and records every read, split into levels where the descent
// samples TraceReads. Within each level the reads come in (R, S) pairs,
// one per θ evaluation and none of a technical node, and the pairs are in
// nondecreasing (R, S) tuple-ID order: θ runs after the level's Θ filter,
// sorted, not as each pair of items passes it. The matches come out sorted.
func TestJoinRefinesInTupleOrder(t *testing.T) {
	tr, ts := rtreePair(t, 1000)
	type touch struct {
		side      byte
		id        int
		technical bool
	}
	levels := [][]touch{nil}
	record := func(side byte) core.Reader {
		return func(n core.Node, dst *geom.Rect) (geom.Spatial, error) {
			id, ok := n.Tuple()
			last := len(levels) - 1
			levels[last] = append(levels[last], touch{side, id, !ok})
			return readRect(n, dst)
		}
	}
	res, err := core.Join(tr, ts, pred.Overlaps{}, &core.JoinOptions{
		ReadR: record('R'),
		ReadS: record('S'),
		Trace: obs.NewTrace(),
		TraceReads: func() int64 {
			levels = append(levels, nil)
			return 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var touches int64
	for l, group := range levels {
		touches += int64(len(group))
		if len(group)%2 != 0 {
			t.Fatalf("level group %d: %d touches, not pairs", l, len(group))
		}
		var prev core.Match
		for i := 0; i < len(group); i += 2 {
			r, s := group[i], group[i+1]
			if r.side != 'R' || s.side != 'S' || r.technical || s.technical {
				t.Fatalf("level group %d, θ %d: touches %+v, %+v; want an R item then an S item",
					l, i/2, r, s)
			}
			m := core.Match{R: r.id, S: s.id}
			if i > 0 && compareMatches(prev, m) > 0 {
				t.Fatalf("level group %d: θ on %+v after %+v, out of (R, S) order", l, m, prev)
			}
			prev = m
		}
	}
	if res.Stats.ExactEvals == 0 || len(res.Pairs) == 0 {
		t.Fatalf("%d θ evaluations, %d matches: the order check is vacuous",
			res.Stats.ExactEvals, len(res.Pairs))
	}
	if touches != 2*res.Stats.ExactEvals {
		t.Errorf("%d touches, want 2 × %d θ evaluations", touches, res.Stats.ExactEvals)
	}
	if !slices.IsSortedFunc(res.Pairs, compareMatches) {
		t.Error("the matches of one worker's refinement are not (R, S)-sorted")
	}
}

// TestJoinRefinementHonoursCancel cancels a join from inside ReadR halfway
// through its θ evaluations, all of which the refinement runs on R-trees.
// The examination count that paces the descent's context checks does not
// move there, so the refinement checks the context before every θ: the θ
// whose read cancelled completes, each other worker completes at most the
// one it had begun, and the join returns context.Canceled.
func TestJoinRefinementHonoursCancel(t *testing.T) {
	tr, ts := rtreePair(t, 1000)
	full, err := core.Join(tr, ts, pred.Overlaps{}, &core.JoinOptions{ReadR: readRect, ReadS: readRect})
	if err != nil {
		t.Fatal(err)
	}
	cancelAt := full.Stats.ExactEvals / 2
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var touched, after atomic.Int64
		res, err := core.Join(tr, ts, pred.Overlaps{}, &core.JoinOptions{
			Workers: workers,
			Ctx:     ctx,
			ReadR: func(n core.Node, dst *geom.Rect) (geom.Spatial, error) {
				switch k := touched.Add(1); {
				case k == cancelAt:
					cancel()
				case k > cancelAt:
					after.Add(1)
				}
				return readRect(n, dst)
			},
			ReadS: readRect,
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers %d: err = %v, result %v; want context.Canceled", workers, err, res != nil)
		}
		if touched.Load() < cancelAt {
			t.Fatalf("workers %d: the join stopped at θ %d, before the cancel at %d",
				workers, touched.Load(), cancelAt)
		}
		if n := after.Load(); n > int64(workers-1) {
			t.Errorf("workers %d: %d θ evaluations began after the cancel, want ≤ %d",
				workers, n, workers-1)
		}
	}
}
