package core

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/pred"
)

// bruteSelect computes the reference answer by exhaustively testing every
// tuple-bearing node.
func bruteSelect(tree Tree, o geom.Spatial, op pred.Operator) []int {
	var out []int
	Walk(tree, func(n Node, _ int) bool {
		if id, ok := n.Tuple(); ok && op.Eval(o, n.Object()) {
			out = append(out, id)
		}
		return true
	})
	sort.Ints(out)
	return out
}

func sorted(ids []int) []int {
	out := append([]int(nil), ids...)
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
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

func TestSelectMatchesBruteForceAllOperators(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ops := []pred.Operator{
		pred.Overlaps{},
		pred.WithinDistance{D: 20},
		pred.Includes{},
		pred.ContainedIn{},
		pred.NorthwestOf{},
		pred.ReachableWithin{Minutes: 5, Speed: 3},
	}
	for trial := 0; trial < 10; trial++ {
		tree, _ := buildUniformTree(rng, geom.NewRect(0, 0, 100, 100), 3, 3, 0, false)
		o := subRect(rng, geom.NewRect(0, 0, 120, 120))
		for _, op := range ops {
			want := bruteSelect(tree, o, op)
			got, err := Select(tree, o, op, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !equalInts(sorted(got.Tuples), want) {
				t.Fatalf("trial %d, %s: Select found %d tuples, brute force %d",
					trial, op.Name(), len(got.Tuples), len(want))
			}
		}
	}
}

func TestSelectBFSEqualsDFS(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 10; trial++ {
		tree, _ := buildUniformTree(rng, geom.NewRect(0, 0, 80, 80), 4, 3, 0, false)
		o := subRect(rng, geom.NewRect(0, 0, 80, 80))
		op := pred.Overlaps{}
		bfs, err := Select(tree, o, op, &SelectOptions{Traversal: BreadthFirst})
		if err != nil {
			t.Fatal(err)
		}
		dfs, err := Select(tree, o, op, &SelectOptions{Traversal: DepthFirst})
		if err != nil {
			t.Fatal(err)
		}
		if !equalInts(sorted(bfs.Tuples), sorted(dfs.Tuples)) {
			t.Fatalf("trial %d: BFS and DFS disagree", trial)
		}
		// They do identical pruning, so the work counters must agree too.
		if bfs.Stats.FilterEvals != dfs.Stats.FilterEvals ||
			bfs.Stats.ExactEvals != dfs.Stats.ExactEvals ||
			bfs.Stats.NodesExamined != dfs.Stats.NodesExamined {
			t.Fatalf("trial %d: BFS stats %+v != DFS stats %+v", trial, bfs.Stats, dfs.Stats)
		}
	}
}

func TestSelectNoDuplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tree, _ := buildUniformTree(rng, geom.NewRect(0, 0, 100, 100), 3, 3, 0, false)
	got, err := Select(tree, geom.NewRect(0, 0, 100, 100), pred.Overlaps{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for _, id := range got.Tuples {
		if seen[id] {
			t.Fatalf("tuple %d reported twice", id)
		}
		seen[id] = true
	}
}

func TestSelectEmptyTree(t *testing.T) {
	got, err := Select(NewBasicTree(nil), geom.NewRect(0, 0, 1, 1), pred.Overlaps{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Tuples) != 0 || got.Stats.NodesExamined != 0 {
		t.Fatalf("empty tree produced %+v", got)
	}
}

func TestSelectPrunesDisjointSubtrees(t *testing.T) {
	// Two well-separated subtrees; a selector hitting only the left one
	// must never examine nodes of the right one (beyond its root).
	root := NewBasicNode(geom.NewRect(0, 0, 100, 10), 0)
	left := root.AddChild(NewBasicNode(geom.NewRect(0, 0, 10, 10), 1))
	right := root.AddChild(NewBasicNode(geom.NewRect(90, 0, 100, 10), 2))
	for i := 0; i < 5; i++ {
		left.AddChild(NewBasicNode(geom.NewRect(float64(i), 0, float64(i+1), 5), 10+i))
		right.AddChild(NewBasicNode(geom.NewRect(float64(90+i), 0, float64(91+i), 5), 20+i))
	}
	tree := NewBasicTree(root)
	sel := geom.NewRect(2, 2, 3, 3)
	got, err := Select(tree, sel, pred.Overlaps{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Nodes examined: root + its 2 children + left's 5 children = 8. The
	// right subtree's children must be pruned.
	if got.Stats.NodesExamined != 8 {
		t.Fatalf("examined %d nodes, want 8 (pruning broken)", got.Stats.NodesExamined)
	}
	// Matches: root (contains sel region), left, and leaves 11..13 — leaf x
	// ranges [1,2], [2,3], [3,4] all touch or overlap sel's [2,3] (boundary
	// contact counts as overlap).
	want := []int{0, 1, 11, 12, 13}
	if !equalInts(sorted(got.Tuples), want) {
		t.Fatalf("tuples = %v, want %v", sorted(got.Tuples), want)
	}
}

func TestSelectInteriorNodesCanQualify(t *testing.T) {
	// The paper explicitly allows interior nodes to be application objects
	// that qualify for the result (§3.2).
	root := NewBasicNode(geom.NewRect(0, 0, 10, 10), 0)
	root.AddChild(NewBasicNode(geom.NewRect(1, 1, 2, 2), 1))
	got, err := Select(NewBasicTree(root), geom.NewRect(4, 4, 6, 6), pred.Overlaps{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(sorted(got.Tuples), []int{0}) {
		t.Fatalf("interior root should qualify alone, got %v", got.Tuples)
	}
}

func TestSelectTechnicalNodesNeverQualify(t *testing.T) {
	root := NewBasicNode(geom.NewRect(0, 0, 10, 10), -1)
	root.AddChild(NewBasicNode(geom.NewRect(1, 1, 2, 2), 5))
	got, err := Select(NewBasicTree(root), geom.NewRect(0, 0, 10, 10), pred.Overlaps{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !equalInts(got.Tuples, []int{5}) {
		t.Fatalf("tuples = %v, want [5]", got.Tuples)
	}
	// Technical root: filter evaluated but no exact eval for it.
	if got.Stats.ExactEvals != 1 {
		t.Fatalf("exact evals = %d, want 1", got.Stats.ExactEvals)
	}
}

func TestSelectTouchCalledOncePerExaminedNode(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tree, _ := buildUniformTree(rng, geom.NewRect(0, 0, 100, 100), 3, 2, 0, false)
	touches := 0
	res, err := Select(tree, geom.NewRect(0, 0, 100, 100), pred.Overlaps{},
		&SelectOptions{Read: func(Node, *geom.Rect) (geom.Spatial, error) { touches++; return nil, nil }})
	if err != nil {
		t.Fatal(err)
	}
	if int64(touches) != res.Stats.NodesExamined {
		t.Fatalf("touches = %d, examined = %d", touches, res.Stats.NodesExamined)
	}
	if touches != CountNodes(tree) {
		t.Fatalf("an everything-overlaps query must touch all %d nodes, got %d",
			CountNodes(tree), touches)
	}
}

func TestSelectTouchErrorAborts(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	tree, _ := buildUniformTree(rng, geom.NewRect(0, 0, 100, 100), 3, 2, 0, false)
	boom := errors.New("io failure")
	for _, trav := range []Traversal{BreadthFirst, DepthFirst} {
		n := 0
		_, err := Select(tree, geom.NewRect(0, 0, 100, 100), pred.Overlaps{},
			&SelectOptions{Traversal: trav, Read: func(Node, *geom.Rect) (geom.Spatial, error) {
				n++
				if n == 3 {
					return nil, boom
				}
				return nil, nil
			}})
		if !errors.Is(err, boom) {
			t.Fatalf("traversal %d: err = %v, want io failure", trav, err)
		}
	}
}

func TestSelectAsymmetricOperatorDirection(t *testing.T) {
	// Selection criterion is "o θ R.A": with NorthwestOf, we must return
	// tuples a such that o is northwest of a — not the converse.
	root := NewBasicNode(geom.NewRect(0, 0, 100, 100), -1)
	se := root.AddChild(NewBasicNode(geom.NewRect(80, 0, 90, 10), 1))  // far southeast
	nw := root.AddChild(NewBasicNode(geom.NewRect(0, 90, 10, 100), 2)) // far northwest
	_, _ = se, nw
	tree := NewBasicTree(root)
	o := geom.NewRect(40, 40, 60, 60) // center (50,50)
	got, err := Select(tree, o, pred.NorthwestOf{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// o (center 50,50) is NW of se (center 85,5) but not of nw (center 5,95).
	if !equalInts(sorted(got.Tuples), []int{1}) {
		t.Fatalf("tuples = %v, want [1]", got.Tuples)
	}
}

func TestSelectStatsMaxQueue(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	tree, _ := buildUniformTree(rng, geom.NewRect(0, 0, 100, 100), 4, 2, 0, false)
	res, err := Select(tree, geom.NewRect(0, 0, 100, 100), pred.Overlaps{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Everything qualifies: the last BFS level holds 16 nodes.
	if res.Stats.MaxQueue != 16 {
		t.Fatalf("MaxQueue = %d, want 16", res.Stats.MaxQueue)
	}
}
