package rtree

import (
	"math/rand"
	"sort"
	"strings"
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

// configs are the (m, M) node capacities the property tests loop over: the
// narrowest tree, an odd M, the default and a fuller minimum.
var configs = []Options{
	{MinEntries: 2, MaxEntries: 4},
	{MinEntries: 1, MaxEntries: 5},
	{MinEntries: 2, MaxEntries: 5},
	DefaultOptions(),
	{MinEntries: 4, MaxEntries: 8},
}

func TestInsertGrowsAndValidates(t *testing.T) {
	for _, opts := range configs {
		tr := MustNew(opts)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 500; i++ {
			tr.Insert(randRect(rng, 1000), i)
			if i%50 == 0 {
				if err := tr.Validate(); err != nil {
					t.Fatalf("%+v, after %d inserts: %v", opts, i+1, err)
				}
			}
		}
		if tr.Len() != 500 {
			t.Fatalf("len = %d", tr.Len())
		}
		// A tree of height h holds at most M^(h+1) items.
		minHeight := 0
		for fit := opts.MaxEntries; fit < 500; fit *= opts.MaxEntries {
			minHeight++
		}
		if tr.Height() < minHeight {
			t.Fatalf("%+v: 500 items need height at least %d, got %d", opts, minHeight, tr.Height())
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSearchMatchesBruteForce(t *testing.T) {
	for _, opts := range []Options{{MinEntries: 2, MaxEntries: 6}, {MinEntries: 3, MaxEntries: 6}} {
		tr := MustNew(opts)
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
				t.Fatalf("%+v, query %d: got %d hits, want %d", opts, q, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%+v, query %d: hit mismatch", opts, q)
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
	for _, opts := range configs {
		tr := MustNew(opts)
		rng := rand.New(rand.NewSource(7))
		live := make(map[int]geom.Rect)
		for id := 0; id < 2000; id++ {
			r := randRect(rng, 300)
			tr.Insert(r, id)
			live[id] = r
			if id%200 == 0 {
				if err := tr.Validate(); err != nil {
					t.Fatalf("%+v: step %d: %v", opts, id, err)
				}
				if tr.Len() != len(live) {
					t.Fatalf("%+v: step %d: len %d != model %d", opts, id, tr.Len(), len(live))
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
						t.Fatalf("%+v: step %d: search returned non-intersecting item %d", opts, id, it.ID)
					}
					got++
					return true
				})
				if got != want {
					t.Fatalf("%+v: step %d: search found %d items, model %d", opts, id, got, want)
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
				t.Fatalf("%+v: ghost item %d", opts, it.ID)
			}
			got++
			return true
		})
		if got != len(live) {
			t.Fatalf("%+v: tree has %d items, model %d", opts, got, len(live))
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

// TestPolygonItemsRoundTrip indexes a polygon: the tree keeps its MBR and
// tuple ID, as a leaf entry does, and its adapter node returns that MBR as
// its object. The exact polygon lives only in its tuple, which θ reads
// (the root package's TestThetaReadsTheHeapTuple covers that).
func TestPolygonItemsRoundTrip(t *testing.T) {
	tr := MustNew(DefaultOptions())
	pg := geom.RegularPolygon(geom.Pt(5, 5), 2, 6)
	tr.Insert(pg.Bounds(), 42)
	var got Item
	tr.Search(pg.Bounds(), func(it Item) bool { got = it; return false })
	if got.ID != 42 || got.Rect != pg.Bounds() {
		t.Fatalf("item = %+v, want ID 42 and the polygon's bounds %v", got, pg.Bounds())
	}
	leaf := tr.Generalization().Root()
	if leaf.NumChildren() != 1 {
		t.Fatalf("root has %d children, want the one item", leaf.NumChildren())
	}
	item := leaf.Child(0)
	if obj := item.Object(); obj != geom.Spatial(pg.Bounds()) || item.ContainsTuple() {
		t.Fatalf("item object %v (contains tuple %t), want its MBR %v and a reference to its tuple",
			obj, item.ContainsTuple(), pg.Bounds())
	}
}

func TestIdenticalRectanglesSplit(t *testing.T) {
	// Degenerate input: many identical rectangles must still split without
	// violating invariants: every sort ties, and position decides.
	for _, opts := range configs {
		tr := MustNew(opts)
		for i := 0; i < 64; i++ {
			tr.Insert(geom.NewRect(1, 1, 2, 2), i)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		n := 0
		tr.Search(geom.NewRect(1, 1, 2, 2), func(Item) bool { n++; return true })
		if n != 64 {
			t.Fatalf("%+v: found %d of 64 identical items", opts, n)
		}
	}
}

// TestValidateCatchesCorruptRecords corrupts one record of a valid
// three-level tree at a time and requires Validate to name the fault: a
// slot whose rectangle is not its child record's, a count above M or below
// m, an interior record marked a leaf (so leaves sit at two depths), and a
// slot naming a record that another slot also names, which the check that
// every record is reached once from the root catches where a parent
// pointer once did.
func TestValidateCatchesCorruptRecords(t *testing.T) {
	build := func() *Tree {
		tr := MustNew(DefaultOptions())
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 500; i++ {
			tr.Insert(randRect(rng, 1000), i)
		}
		if tr.Height() < 2 {
			t.Fatalf("height %d, want at least 2", tr.Height())
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	// child returns the record slot i of r names.
	child := func(tr *Tree, r *record, i int) *record { return tr.rec(r.slots()[i].ref) }
	cases := []struct {
		name    string
		corrupt func(tr *Tree)
		want    string
	}{
		{"slot rectangle", func(tr *Tree) {
			c := child(tr, tr.root, 0)
			c.rect = c.rect.Expand(1)
		}, "stale slot rectangle at depth 0 slot 0"},
		{"count above M", func(tr *Tree) {
			child(tr, child(tr, tr.root, 0), 0).count = uint16(tr.opts.MaxEntries + 1)
		}, "has 9 slots, outside [m, M] = [2, 8]"},
		{"count below m", func(tr *Tree) {
			child(tr, child(tr, tr.root, 0), 0).count = uint16(tr.opts.MinEntries - 1)
		}, "has 1 slots, outside [m, M] = [2, 8]"},
		{"leaf at the wrong depth", func(tr *Tree) {
			n := tr.root
			for d := 0; d < tr.Height()-1; d++ {
				n = child(tr, n, int(n.count)-1)
			}
			n.leaf = true
		}, "leaves at depths"},
		{"record named twice", func(tr *Tree) {
			s := tr.root.slots()
			s[1] = s[0]
			tr.root.rect = mbr(s)
		}, "reached from the root"},
	}
	for _, c := range cases {
		tr := build()
		c.corrupt(tr)
		if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
