package localindex

import (
	"math/rand"
	"sort"
	"testing"

	"spatialjoin/internal/core"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/pred"
)

// bruteSelfJoin enumerates all matching pairs of tuple-bearing nodes.
func bruteSelfJoin(tree core.Tree, op pred.Operator) []core.Match {
	var nodes []core.Node
	core.Walk(tree, func(n core.Node, _ int) bool {
		if _, ok := n.Tuple(); ok {
			nodes = append(nodes, n)
		}
		return true
	})
	var out []core.Match
	for _, a := range nodes {
		for _, b := range nodes {
			if op.Eval(a.Object(), b.Object()) {
				ra, _ := a.Tuple()
				sb, _ := b.Tuple()
				out = append(out, core.Match{R: ra, S: sb})
			}
		}
	}
	sortMatches(out)
	return out
}

func sortMatches(ms []core.Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].R != ms[j].R {
			return ms[i].R < ms[j].R
		}
		return ms[i].S < ms[j].S
	})
}

func modelTree(t *testing.T, seed int64, k, height int) core.Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tree, _ := datagen.ModelTree(rng, geom.NewRect(0, 0, 500, 500), k, height)
	return tree
}

func TestBuildValidation(t *testing.T) {
	tree := modelTree(t, 1, 2, 2)
	if _, _, err := Build(nil, pred.Overlaps{}, 1, 10, nil); err == nil {
		t.Error("nil tree must fail")
	}
	if _, _, err := Build(tree, nil, 1, 10, nil); err == nil {
		t.Error("nil operator must fail")
	}
	if _, _, err := Build(tree, pred.Overlaps{}, -1, 10, nil); err == nil {
		t.Error("negative level must fail")
	}
	if _, _, err := Build(tree, pred.Overlaps{}, 1, 1, nil); err == nil {
		t.Error("bad order must fail")
	}
}

func TestSelfJoinMatchesBruteForceAllLevels(t *testing.T) {
	ops := []pred.Operator{pred.Overlaps{}, pred.WithinDistance{D: 80}, pred.NorthwestOf{}}
	for _, seed := range []int64{1, 2, 3} {
		tree := modelTree(t, seed, 3, 3)
		for _, op := range ops {
			want := bruteSelfJoin(tree, op)
			for level := 0; level <= 4; level++ {
				ix, _, err := Build(tree, op, level, 25, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := ix.Validate(); err != nil {
					t.Fatal(err)
				}
				got, _, err := ix.SelfJoin()
				if err != nil {
					t.Fatal(err)
				}
				sortMatches(got)
				if len(got) != len(want) {
					t.Fatalf("seed %d, %s, λ=%d: %d pairs, brute force %d",
						seed, op.Name(), level, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d, %s, λ=%d: pair %d mismatch", seed, op.Name(), level, i)
					}
				}
			}
		}
	}
}

func TestNoDuplicatePairs(t *testing.T) {
	tree := modelTree(t, 4, 3, 3)
	for level := 0; level <= 3; level++ {
		ix, _, err := Build(tree, pred.Overlaps{}, level, 25, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := ix.SelfJoin()
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[core.Match]bool, len(got))
		for _, m := range got {
			if seen[m] {
				t.Fatalf("λ=%d: duplicate pair %+v", level, m)
			}
			seen[m] = true
		}
	}
}

func TestLambdaZeroIsGlobalIndex(t *testing.T) {
	// λ = 0 anchors one index at the root: the whole join precomputed, and
	// the live part does nothing.
	tree := modelTree(t, 5, 3, 2)
	ix, _, err := Build(tree, pred.Overlaps{}, 0, 25, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Anchors() != 1 {
		t.Fatalf("anchors = %d, want 1", ix.Anchors())
	}
	got, stats, err := ix.SelfJoin()
	if err != nil {
		t.Fatal(err)
	}
	if stats.FilterEvals != 0 || stats.ExactEvals != 0 {
		t.Fatalf("λ=0 must answer without live evaluation: %+v", stats)
	}
	if len(got) != ix.Pairs() {
		t.Fatalf("result %d != stored %d", len(got), ix.Pairs())
	}
}

func TestLambdaBeyondHeightIsPureTree(t *testing.T) {
	tree := modelTree(t, 6, 3, 2)
	ix, _, err := Build(tree, pred.Overlaps{}, 5, 25, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Anchors() != 0 || ix.Pairs() != 0 {
		t.Fatalf("λ beyond height must store nothing: %d anchors, %d pairs",
			ix.Anchors(), ix.Pairs())
	}
	got, stats, err := ix.SelfJoin()
	if err != nil {
		t.Fatal(err)
	}
	if stats.IndexReads != 0 {
		t.Fatal("pure tree join must not read index pages")
	}
	want := bruteSelfJoin(tree, pred.Overlaps{})
	if len(got) != len(want) {
		t.Fatalf("pure-tree fallback wrong: %d vs %d", len(got), len(want))
	}
}

func TestLiveEvaluationsShrinkAsLambdaDecreases(t *testing.T) {
	// The mixture property: moving λ toward the root shifts work from live
	// evaluation (II) to index lookup (III).
	tree := modelTree(t, 7, 4, 3)
	var prevEvals int64 = -1
	for level := 3; level >= 0; level-- {
		ix, _, err := Build(tree, pred.Overlaps{}, level, 25, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := ix.SelfJoin()
		if err != nil {
			t.Fatal(err)
		}
		evals := stats.FilterEvals + stats.ExactEvals
		if prevEvals >= 0 && evals > prevEvals {
			t.Fatalf("λ=%d: live evals grew (%d > %d)", level, evals, prevEvals)
		}
		prevEvals = evals
	}
}

func TestAnchorFor(t *testing.T) {
	tree := modelTree(t, 10, 3, 2)
	ix, _, err := Build(tree, pred.Overlaps{}, 1, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Anchors() != 3 {
		t.Fatalf("anchors = %d", ix.Anchors())
	}
	// A rect escaping all anchors.
	if _, ok := ix.AnchorFor(geom.NewRect(-100, -100, -99, -99)); ok {
		t.Fatal("outside rect must not anchor")
	}
	// The first anchor's own bounds anchor to it.
	a0 := ix.anchors[0].node.Bounds()
	if i, ok := ix.AnchorFor(a0); !ok || i != 0 {
		t.Fatalf("AnchorFor(anchor 0 bounds) = %d, %t", i, ok)
	}
}

func TestStatsCost(t *testing.T) {
	s := Stats{FilterEvals: 3, ExactEvals: 2, IndexReads: 4}
	if got := s.Cost(1, 1000); got != 5+4000 {
		t.Fatalf("Cost = %g", got)
	}
}

func TestCostTradeoffAcrossLambda(t *testing.T) {
	// End-to-end sanity on the paper's conjecture: some intermediate λ
	// should be no worse than both extremes in combined query cost when
	// index reads are cheap relative to evaluation... at least, the
	// weighted costs must vary monotonically in their components.
	tree := modelTree(t, 11, 4, 3)
	op := pred.Overlaps{}
	type point struct {
		level  int
		evals  int64
		stored int
	}
	var pts []point
	for level := 0; level <= 4; level++ {
		ix, _, err := Build(tree, op, level, 100, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := ix.SelfJoin()
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, point{level, stats.FilterEvals + stats.ExactEvals, ix.Pairs()})
	}
	// Precomputed pairs decrease as λ rises (less is stored); live evals
	// increase (more is computed at query time). Page counts are not
	// monotone because each non-empty anchor pays a ⌈pairs/z⌉ ≥ 1 rounding.
	for i := 1; i < len(pts); i++ {
		if pts[i].stored > pts[i-1].stored {
			t.Fatalf("stored pairs must shrink with λ: %+v", pts)
		}
		if pts[i].evals < pts[i-1].evals {
			t.Fatalf("live evals must grow with λ: %+v", pts)
		}
	}
	// The extremes really are the pure strategies.
	if pts[0].evals != 0 {
		t.Fatal("λ=0 must not evaluate live")
	}
	if pts[len(pts)-1].stored != 0 {
		t.Fatal("λ beyond height must store nothing")
	}
}

func TestLevelAndSubtreeHeightAccessors(t *testing.T) {
	tree := modelTree(t, 12, 2, 2)
	ix, _, err := Build(tree, pred.Overlaps{}, 1, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ix.Level() != 1 {
		t.Fatalf("Level = %d", ix.Level())
	}
	if (subtree{tree.Root()}).Height() != 0 {
		t.Fatal("subtree wrapper height must be 0 (unused)")
	}
}
