package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"spatialjoin/internal/core"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/pred"
)

func TestAdapterEmptyTree(t *testing.T) {
	tr := MustNew(DefaultOptions())
	gt := tr.Generalization()
	if gt.Root() != nil {
		t.Fatal("empty R-tree must adapt to nil root")
	}
	if gt.Height() != 0 {
		t.Fatalf("empty height = %d", gt.Height())
	}
}

func TestAdapterStructure(t *testing.T) {
	tr := MustNew(Options{MinEntries: 2, MaxEntries: 4})
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 100; i++ {
		tr.Insert(randRect(rng, 100), i)
	}
	gt := tr.Generalization()
	if gt.Height() != tr.Height()+1 {
		t.Fatalf("adapter height %d, rtree height %d", gt.Height(), tr.Height())
	}
	// Interior nodes are technical; leaves carry the 100 tuples exactly once.
	tuples := make(map[int]int)
	interior := 0
	core.Walk(gt, func(n core.Node, _ int) bool {
		if id, ok := n.Tuple(); ok {
			tuples[id]++
			if n.NumChildren() != 0 {
				t.Fatal("item nodes must be leaves")
			}
		} else {
			interior++
		}
		return true
	})
	if len(tuples) != 100 {
		t.Fatalf("adapter exposes %d tuples, want 100", len(tuples))
	}
	for id, c := range tuples {
		if c != 1 {
			t.Fatalf("tuple %d appears %d times", id, c)
		}
	}
	if interior == 0 {
		t.Fatal("no technical nodes found")
	}
}

func TestAdapterContainmentInvariant(t *testing.T) {
	// The adapter must be a valid generalization tree: children inside
	// parents.
	tr := MustNew(Options{MinEntries: 2, MaxEntries: 4, Split: LinearSplit})
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		tr.Insert(randRect(rng, 500), i)
	}
	var check func(n core.Node) bool
	check = func(n core.Node) bool {
		for i := 0; i < n.NumChildren(); i++ {
			c := n.Child(i)
			if !n.Bounds().ContainsRect(c.Bounds()) {
				t.Fatalf("child %v escapes parent %v", c.Bounds(), n.Bounds())
			}
			if !check(c) {
				return false
			}
		}
		return true
	}
	check(tr.Generalization().Root())
}

func TestSelectOverRTree(t *testing.T) {
	tr := MustNew(Options{MinEntries: 2, MaxEntries: 6})
	rng := rand.New(rand.NewSource(12))
	var rects []geom.Rect
	for i := 0; i < 300; i++ {
		r := randRect(rng, 400)
		rects = append(rects, r)
		tr.Insert(r, i)
	}
	query := geom.NewRect(100, 100, 180, 180)
	res, err := core.Select(tr.Generalization(), query, pred.Overlaps{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want []int
	for i, r := range rects {
		if r.Intersects(query) {
			want = append(want, i)
		}
	}
	got := append([]int(nil), res.Tuples...)
	sort.Ints(got)
	if len(got) != len(want) {
		t.Fatalf("core.Select over R-tree: %d hits, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatal("hit set mismatch")
		}
	}
	// Pruning must make the hierarchical select cheaper than exhaustive.
	if res.Stats.NodesExamined >= int64(core.CountNodes(tr.Generalization())) {
		t.Fatalf("select examined all %d nodes — no pruning", res.Stats.NodesExamined)
	}
}

func TestJoinOverTwoRTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	trA := MustNew(Options{MinEntries: 2, MaxEntries: 5})
	trB := MustNew(Options{MinEntries: 2, MaxEntries: 5, Split: LinearSplit})
	var as, bs []geom.Rect
	for i := 0; i < 120; i++ {
		a := randRect(rng, 200)
		b := randRect(rng, 200)
		as = append(as, a)
		bs = append(bs, b)
		trA.Insert(a, i)
		trB.Insert(b, i)
	}
	res, err := core.Join(trA.Generalization(), trB.Generalization(), pred.Overlaps{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, a := range as {
		for _, b := range bs {
			if a.Intersects(b) {
				want++
			}
		}
	}
	if len(res.Pairs) != want {
		t.Fatalf("join found %d pairs, brute force %d", len(res.Pairs), want)
	}
	seen := make(map[core.Match]bool)
	for _, m := range res.Pairs {
		if seen[m] {
			t.Fatalf("duplicate pair %+v", m)
		}
		seen[m] = true
	}
}

func TestAdapterIsLiveView(t *testing.T) {
	tr := MustNew(DefaultOptions())
	gt := tr.Generalization()
	tr.Insert(geom.NewRect(0, 0, 1, 1), 0)
	if gt.Root() == nil {
		t.Fatal("adapter must see the insert")
	}
	res, err := core.Select(gt, geom.NewRect(0, 0, 2, 2), pred.Overlaps{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 1 {
		t.Fatalf("live view select found %d", len(res.Tuples))
	}
}
