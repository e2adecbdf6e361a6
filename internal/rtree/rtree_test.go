package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"spatialjoin/internal/geom"
)

func randRect(rng *rand.Rand, world float64) geom.Rect {
	x := rng.Float64() * world
	y := rng.Float64() * world
	return geom.NewRect(x, y, x+rng.Float64()*world/20, y+rng.Float64()*world/20)
}

func TestOptionsValidation(t *testing.T) {
	if _, err := New(Options{MinEntries: 1, MaxEntries: 1}); err == nil {
		t.Error("MaxEntries < 2 must fail")
	}
	if _, err := New(Options{MinEntries: 0, MaxEntries: 8}); err == nil {
		t.Error("MinEntries < 1 must fail")
	}
	if _, err := New(Options{MinEntries: 5, MaxEntries: 8}); err == nil {
		t.Error("MinEntries > MaxEntries/2 must fail")
	}
	if _, err := New(Options{MinEntries: 2, MaxEntries: 8, Split: SplitStrategy(9)}); err == nil {
		t.Error("unknown split must fail")
	}
	if _, err := New(DefaultOptions()); err != nil {
		t.Errorf("default options must validate: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew must panic on invalid options")
		}
	}()
	MustNew(Options{MinEntries: 9, MaxEntries: 2})
}

func TestSplitStrategyString(t *testing.T) {
	if QuadraticSplit.String() != "quadratic" || LinearSplit.String() != "linear" {
		t.Fatal("split strategy names wrong")
	}
	if SplitStrategy(7).String() != "SplitStrategy(7)" {
		t.Fatal("unknown strategy string wrong")
	}
}

func TestEmptyTree(t *testing.T) {
	tr := MustNew(DefaultOptions())
	if tr.Len() != 0 || tr.Height() != 0 {
		t.Fatalf("empty tree: len=%d height=%d", tr.Len(), tr.Height())
	}
	if _, ok := tr.Bounds(); ok {
		t.Fatal("empty tree has no bounds")
	}
	if v := tr.Search(geom.NewRect(0, 0, 1, 1), func(Item) bool { return true }); v != 0 {
		t.Fatalf("empty search visited %d nodes", v)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertGrowsAndValidates(t *testing.T) {
	for _, split := range []SplitStrategy{QuadraticSplit, LinearSplit} {
		tr := MustNew(Options{MinEntries: 2, MaxEntries: 4, Split: split})
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 500; i++ {
			tr.Insert(randRect(rng, 1000), i)
			if i%50 == 0 {
				if err := tr.Validate(); err != nil {
					t.Fatalf("%v split, after %d inserts: %v", split, i+1, err)
				}
			}
		}
		if tr.Len() != 500 {
			t.Fatalf("len = %d", tr.Len())
		}
		if tr.Height() < 3 {
			t.Fatalf("500 items in M=4 tree should be at least 3 levels, got %d", tr.Height())
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSearchMatchesBruteForce(t *testing.T) {
	for _, split := range []SplitStrategy{QuadraticSplit, LinearSplit} {
		tr := MustNew(Options{MinEntries: 2, MaxEntries: 6, Split: split})
		rng := rand.New(rand.NewSource(2))
		var all []geom.Rect
		for i := 0; i < 400; i++ {
			r := randRect(rng, 500)
			all = append(all, r)
			tr.Insert(r, i)
		}
		for q := 0; q < 50; q++ {
			query := randRect(rng, 500).Expand(rng.Float64() * 30)
			var want []int
			for i, r := range all {
				if r.Intersects(query) {
					want = append(want, i)
				}
			}
			var got []int
			tr.Search(query, func(it Item) bool {
				got = append(got, it.ID)
				return true
			})
			sort.Ints(got)
			if len(got) != len(want) {
				t.Fatalf("%v split, query %d: got %d hits, want %d", split, q, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%v split, query %d: hit mismatch", split, q)
				}
			}
		}
	}
}

func TestSearchEarlyStop(t *testing.T) {
	tr := MustNew(DefaultOptions())
	for i := 0; i < 100; i++ {
		tr.Insert(geom.NewRect(0, 0, 1, 1), i)
	}
	count := 0
	tr.Search(geom.NewRect(0, 0, 1, 1), func(Item) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Fatalf("early stop visited %d items", count)
	}
}

func TestSearchPrunes(t *testing.T) {
	// Clustered data far from the query: the search should visit only the
	// root, not every node.
	tr := MustNew(Options{MinEntries: 2, MaxEntries: 4})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		tr.Insert(randRect(rng, 100), i)
	}
	visited := tr.Search(geom.NewRect(10000, 10000, 10001, 10001), func(Item) bool { return true })
	if visited != 1 {
		t.Fatalf("disjoint query visited %d nodes, want 1 (root)", visited)
	}
}

func TestAllVisitsEverything(t *testing.T) {
	tr := MustNew(DefaultOptions())
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 150; i++ {
		tr.Insert(randRect(rng, 100), i)
	}
	seen := make(map[int]bool)
	tr.All(func(it Item) bool {
		seen[it.ID] = true
		return true
	})
	if len(seen) != 150 {
		t.Fatalf("All saw %d items", len(seen))
	}
	n := 0
	tr.All(func(Item) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("All early stop visited %d", n)
	}
}

func TestRandomInsertDeleteInvariants(t *testing.T) {
	// Property test: under random inserts, every Validate() invariant holds
	// and search agrees with a model map.
	for _, split := range []SplitStrategy{QuadraticSplit, LinearSplit} {
		tr := MustNew(Options{MinEntries: 2, MaxEntries: 5, Split: split})
		rng := rand.New(rand.NewSource(7))
		live := make(map[int]geom.Rect)
		for id := 0; id < 2000; id++ {
			r := randRect(rng, 300)
			tr.Insert(r, id)
			live[id] = r
			if id%200 == 0 {
				if err := tr.Validate(); err != nil {
					t.Fatalf("%v: step %d: %v", split, id, err)
				}
				if tr.Len() != len(live) {
					t.Fatalf("%v: step %d: len %d != model %d", split, id, tr.Len(), len(live))
				}
				// Search against a brute-force scan of the model.
				q := randRect(rng, 300)
				want := 0
				for _, lr := range live {
					if lr.Intersects(q) {
						want++
					}
				}
				got := 0
				tr.Search(q, func(it Item) bool {
					if !live[it.ID].Intersects(q) {
						t.Fatalf("%v: step %d: search returned non-intersecting item %d", split, id, it.ID)
					}
					got++
					return true
				})
				if got != want {
					t.Fatalf("%v: step %d: search found %d items, model %d", split, id, got, want)
				}
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		// Final full comparison.
		got := 0
		tr.All(func(it Item) bool {
			if _, ok := live[it.ID]; !ok {
				t.Fatalf("%v: ghost item %d", split, it.ID)
			}
			got++
			return true
		})
		if got != len(live) {
			t.Fatalf("%v: tree has %d items, model %d", split, got, len(live))
		}
	}
}

func TestBoundsTracksContent(t *testing.T) {
	tr := MustNew(DefaultOptions())
	tr.Insert(geom.NewRect(0, 0, 1, 1), 0)
	tr.Insert(geom.NewRect(9, 9, 10, 10), 1)
	b, ok := tr.Bounds()
	if !ok || b != geom.NewRect(0, 0, 10, 10) {
		t.Fatalf("bounds = %v, %t", b, ok)
	}
}

func TestPolygonItemsRoundTrip(t *testing.T) {
	tr := MustNew(DefaultOptions())
	pg := geom.RegularPolygon(geom.Pt(5, 5), 2, 6)
	tr.Insert(pg, 42)
	var got Item
	tr.Search(pg.Bounds(), func(it Item) bool { got = it; return false })
	if got.ID != 42 {
		t.Fatalf("item id = %d", got.ID)
	}
	if _, ok := got.Obj.(geom.Polygon); !ok {
		t.Fatalf("exact geometry lost: %T", got.Obj)
	}
}

func TestIdenticalRectanglesSplit(t *testing.T) {
	// Degenerate input: many identical rectangles must still split without
	// violating invariants (exercises the linear-seed fallback).
	for _, split := range []SplitStrategy{QuadraticSplit, LinearSplit} {
		tr := MustNew(Options{MinEntries: 2, MaxEntries: 4, Split: split})
		for i := 0; i < 64; i++ {
			tr.Insert(geom.NewRect(1, 1, 2, 2), i)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%v: %v", split, err)
		}
		n := 0
		tr.Search(geom.NewRect(1, 1, 2, 2), func(Item) bool { n++; return true })
		if n != 64 {
			t.Fatalf("%v: found %d of 64 identical items", split, n)
		}
	}
}
