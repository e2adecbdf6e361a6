package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/pred"
)

// bruteJoin computes the reference join result by nested loop over all
// tuple-bearing nodes of both trees.
func bruteJoin(tr, ts Tree, op pred.Operator) []Match {
	var left, right []Node
	Walk(tr, func(n Node, _ int) bool {
		if _, ok := n.Tuple(); ok {
			left = append(left, n)
		}
		return true
	})
	Walk(ts, func(n Node, _ int) bool {
		if _, ok := n.Tuple(); ok {
			right = append(right, n)
		}
		return true
	})
	var out []Match
	for _, a := range left {
		for _, b := range right {
			if op.Eval(a.Object(), b.Object()) {
				ra, _ := a.Tuple()
				sb, _ := b.Tuple()
				out = append(out, Match{R: ra, S: sb})
			}
		}
	}
	sortMatches(out)
	return out
}

func sortMatches(m []Match) {
	sort.Slice(m, func(i, j int) bool {
		if m[i].R != m[j].R {
			return m[i].R < m[j].R
		}
		return m[i].S < m[j].S
	})
}

func equalMatches(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestJoinMatchesBruteForceAllOperators(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	ops := []pred.Operator{
		pred.Overlaps{},
		pred.WithinDistance{D: 15},
		pred.Includes{},
		pred.ContainedIn{},
		pred.NorthwestOf{},
		pred.ReachableWithin{Minutes: 4, Speed: 2},
	}
	for trial := 0; trial < 6; trial++ {
		tr, _ := buildUniformTree(rng, geom.NewRect(0, 0, 100, 100), 3, 2, 0, false)
		ts, _ := buildUniformTree(rng, geom.NewRect(20, 20, 120, 120), 3, 2, 0, false)
		for _, op := range ops {
			want := bruteJoin(tr, ts, op)
			got, err := Join(tr, ts, op, nil)
			if err != nil {
				t.Fatal(err)
			}
			gotPairs := append([]Match(nil), got.Pairs...)
			sortMatches(gotPairs)
			if !equalMatches(gotPairs, want) {
				t.Fatalf("trial %d, %s: Join found %d pairs, brute force %d",
					trial, op.Name(), len(gotPairs), len(want))
			}
		}
	}
}

func TestJoinReportsEachPairExactlyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	for trial := 0; trial < 8; trial++ {
		tr, _ := buildUniformTree(rng, geom.NewRect(0, 0, 60, 60), 3, 3, 0, false)
		ts, _ := buildUniformTree(rng, geom.NewRect(10, 10, 70, 70), 3, 3, 0, false)
		got, err := Join(tr, ts, pred.Overlaps{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[Match]bool, len(got.Pairs))
		for _, m := range got.Pairs {
			if seen[m] {
				t.Fatalf("trial %d: pair %+v reported twice", trial, m)
			}
			seen[m] = true
		}
	}
}

func TestJoinTechnicalInteriorTrees(t *testing.T) {
	// R-tree style: only leaves carry tuples. Heights deliberately unequal
	// to exercise the uneven-descent path.
	rng := rand.New(rand.NewSource(121))
	tr, _ := buildUniformTree(rng, geom.NewRect(0, 0, 100, 100), 3, 2, 0, true)
	ts, _ := buildUniformTree(rng, geom.NewRect(0, 0, 100, 100), 2, 4, 0, true)
	for _, op := range []pred.Operator{pred.Overlaps{}, pred.WithinDistance{D: 25}} {
		want := bruteJoin(tr, ts, op)
		got, err := Join(tr, ts, op, nil)
		if err != nil {
			t.Fatal(err)
		}
		gotPairs := append([]Match(nil), got.Pairs...)
		sortMatches(gotPairs)
		if !equalMatches(gotPairs, want) {
			t.Fatalf("%s: %d pairs vs brute force %d", op.Name(), len(gotPairs), len(want))
		}
	}
}

func TestJoinRaggedTrees(t *testing.T) {
	// Hand-built ragged trees (leaves at different depths), as in
	// cartographic hierarchies.
	mk := func(base float64) *BasicTree {
		root := NewBasicNode(geom.NewRect(base, 0, base+40, 40), 0)
		a := root.AddChild(NewBasicNode(geom.NewRect(base, 0, base+20, 20), 1))
		root.AddChild(NewBasicNode(geom.NewRect(base+20, 20, base+40, 40), 2)) // leaf at depth 1
		aa := a.AddChild(NewBasicNode(geom.NewRect(base, 0, base+10, 10), 3))
		aa.AddChild(NewBasicNode(geom.NewRect(base+1, 1, base+5, 5), 4)) // leaf at depth 3
		return NewBasicTree(root)
	}
	tr := mk(0)
	ts := mk(5) // shifted copy so plenty of cross matches exist
	want := bruteJoin(tr, ts, pred.Overlaps{})
	got, err := Join(tr, ts, pred.Overlaps{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotPairs := append([]Match(nil), got.Pairs...)
	sortMatches(gotPairs)
	if !equalMatches(gotPairs, want) {
		t.Fatalf("ragged join: got %v want %v", gotPairs, want)
	}
}

func TestJoinSelfJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	tr, _ := buildUniformTree(rng, geom.NewRect(0, 0, 50, 50), 3, 2, 0, false)
	want := bruteJoin(tr, tr, pred.Overlaps{})
	got, err := Join(tr, tr, pred.Overlaps{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	gotPairs := append([]Match(nil), got.Pairs...)
	sortMatches(gotPairs)
	if !equalMatches(gotPairs, want) {
		t.Fatalf("self join: %d pairs vs %d", len(gotPairs), len(want))
	}
	// Reflexive pairs (i,i) must be present for overlaps.
	found := false
	for _, m := range gotPairs {
		if m.R == m.S {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("self join must contain reflexive overlap pairs")
	}
}

func TestJoinEmptyTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	tr, _ := buildUniformTree(rng, geom.NewRect(0, 0, 50, 50), 2, 2, 0, false)
	empty := NewBasicTree(nil)
	for _, pair := range [][2]Tree{{empty, tr}, {tr, empty}, {empty, empty}} {
		got, err := Join(pair[0], pair[1], pred.Overlaps{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Pairs) != 0 {
			t.Fatalf("empty-tree join produced %d pairs", len(got.Pairs))
		}
	}
}

func TestJoinAsymmetricOperatorDirection(t *testing.T) {
	// R ⋈(northwest_of) S must return (r, s) with center(r) NW of center(s).
	r := NewBasicTree(NewBasicNode(geom.NewRect(0, 90, 10, 100), 0)) // NW corner
	s := NewBasicTree(NewBasicNode(geom.NewRect(90, 0, 100, 10), 0)) // SE corner
	got, err := Join(r, s, pred.NorthwestOf{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Pairs) != 1 {
		t.Fatalf("expected one pair, got %d", len(got.Pairs))
	}
	// Reversed direction must be empty.
	rev, err := Join(s, r, pred.NorthwestOf{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rev.Pairs) != 0 {
		t.Fatalf("reverse NW join must be empty, got %d", len(rev.Pairs))
	}
}

func TestJoinPruningSkipsDisjointSubtrees(t *testing.T) {
	// Two trees in disjoint halves of space: the join must stop after one
	// root-pair filter evaluation.
	rng := rand.New(rand.NewSource(151))
	tr, _ := buildUniformTree(rng, geom.NewRect(0, 0, 40, 40), 3, 3, 0, false)
	ts, _ := buildUniformTree(rng, geom.NewRect(100, 100, 140, 140), 3, 3, 0, false)
	got, err := Join(tr, ts, pred.Overlaps{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Pairs) != 0 {
		t.Fatal("disjoint trees cannot produce overlap pairs")
	}
	if got.Stats.FilterEvals != 1 {
		t.Fatalf("filter evals = %d, want 1 (root pair only)", got.Stats.FilterEvals)
	}
}

func TestJoinTouchHooksSeeRightTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(161))
	tr, nR := buildUniformTree(rng, geom.NewRect(0, 0, 50, 50), 2, 2, 0, false)
	ts, nS := buildUniformTree(rng, geom.NewRect(0, 0, 50, 50), 2, 2, 100, false)
	_ = nR
	_ = nS
	var touchedR, touchedS int
	_, err := Join(tr, ts, pred.Overlaps{}, &JoinOptions{
		ReadR: func(n Node, _ *geom.Rect) (geom.Spatial, error) {
			if id, ok := n.Tuple(); ok && id >= 100 {
				return nil, fmt.Errorf("S node %d leaked into ReadR", id)
			}
			touchedR++
			return nil, nil
		},
		ReadS: func(n Node, _ *geom.Rect) (geom.Spatial, error) {
			if id, ok := n.Tuple(); ok && id < 100 {
				return nil, fmt.Errorf("R node %d leaked into ReadS", id)
			}
			touchedS++
			return nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if touchedR == 0 || touchedS == 0 {
		t.Fatalf("readers not called: R=%d S=%d", touchedR, touchedS)
	}
}

func TestJoinTouchErrorAborts(t *testing.T) {
	rng := rand.New(rand.NewSource(171))
	tr, _ := buildUniformTree(rng, geom.NewRect(0, 0, 50, 50), 2, 2, 0, false)
	ts, _ := buildUniformTree(rng, geom.NewRect(0, 0, 50, 50), 2, 2, 0, false)
	boom := errors.New("disk died")
	_, err := Join(tr, ts, pred.Overlaps{}, &JoinOptions{
		ReadS: func(Node, *geom.Rect) (geom.Spatial, error) { return nil, boom },
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want disk died", err)
	}
}

func TestJoinStatsAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(181))
	tr, _ := buildUniformTree(rng, geom.NewRect(0, 0, 50, 50), 3, 2, 0, false)
	ts, _ := buildUniformTree(rng, geom.NewRect(0, 0, 50, 50), 3, 2, 0, false)
	got, err := Join(tr, ts, pred.Overlaps{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.FilterEvals == 0 || got.Stats.ExactEvals == 0 || got.Stats.NodesExamined == 0 {
		t.Fatalf("stats look unpopulated: %+v", got.Stats)
	}
	// Exact evaluations can never exceed filter evaluations (θ is only
	// checked behind a passing Θ).
	if got.Stats.ExactEvals > got.Stats.FilterEvals {
		t.Fatalf("exact evals %d > filter evals %d", got.Stats.ExactEvals, got.Stats.FilterEvals)
	}
}

// buildMixedTree builds a ragged generalization tree (0–3 children per
// node, leaves at different depths down to maxDepth) whose interior nodes
// are randomly technical or tuple-bearing. Depth-1 nodes always bear a
// tuple and have children, so with technicalRoot every tree has a technical
// node directly over a tuple-bearing interior node; leaves always bear
// tuples.
func buildMixedTree(rng *rand.Rand, root geom.Rect, maxDepth, firstID int, technicalRoot bool) *BasicTree {
	id := firstID
	var grow func(n *BasicNode, depth int)
	grow = func(n *BasicNode, depth int) {
		kids := 0
		if depth < maxDepth {
			kids = rng.Intn(4)
			if depth <= 1 && kids == 0 {
				kids = 2
			}
		}
		technical := rng.Intn(2) == 0
		switch {
		case depth == 0:
			technical = technicalRoot
		case depth == 1 || kids == 0:
			technical = false
		}
		if !technical {
			n.TupleID = id
			id++
		}
		for c := 0; c < kids; c++ {
			grow(n.AddChild(NewBasicNode(subRect(rng, n.Bounds()), -1)), depth+1)
		}
	}
	rootNode := NewBasicNode(root, -1)
	grow(rootNode, 0)
	return NewBasicTree(rootNode)
}

func TestJoinMixedTechnicalAndTupleNodes(t *testing.T) {
	// The SELECT pass of JOIN4 descends only under a tuple-bearing fixed
	// node. On trees mixing both kinds at every depth — unequal heights,
	// both operand orders, so the asymmetric operators see each tree on
	// each side — the result must still be the exhaustive one.
	rng := rand.New(rand.NewSource(191))
	for trial := 0; trial < 40; trial++ {
		tr := buildMixedTree(rng, geom.NewRect(0, 0, 100, 100), 2+trial%3, 0, trial%2 == 0)
		ts := buildMixedTree(rng, geom.NewRect(10, 10, 110, 110), 4-trial%3, 1000, trial%4 < 2)
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, trees := range [][2]Tree{{tr, ts}, {ts, tr}} {
			for _, op := range pred.Table1() {
				want := bruteJoin(trees[0], trees[1], op)
				res, err := Join(trees[0], trees[1], op, nil)
				if err != nil {
					t.Fatal(err)
				}
				got := append([]Match(nil), res.Pairs...)
				sortMatches(got)
				if !equalMatches(got, want) {
					t.Fatalf("trial %d, %s: Join found %d pairs, brute force %d",
						trial, op.Name(), len(got), len(want))
				}
			}
		}
	}
}
