package rtree

import (
	"math/rand"
	"sort"
	"testing"

	"spatialjoin/internal/geom"
)

func randomItems(seed int64, n int) []Item {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Item, n)
	for i := range out {
		r := randRect(rng, 1000)
		out[i] = Item{Obj: r, ID: i}
	}
	return out
}

func TestBulkLoadEmptyAndSingle(t *testing.T) {
	tr, err := BulkLoad(DefaultOptions(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 || tr.Height() != 0 {
		t.Fatal("empty bulk load must give an empty tree")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	tr, err = BulkLoad(DefaultOptions(), randomItems(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 1 || tr.Height() != 0 {
		t.Fatalf("single item: len=%d height=%d", tr.Len(), tr.Height())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBulkLoadInvalidOptions(t *testing.T) {
	if _, err := BulkLoad(Options{MinEntries: 0, MaxEntries: 4}, nil); err == nil {
		t.Fatal("invalid options must fail")
	}
}

func TestBulkLoadInvariantsAcrossSizes(t *testing.T) {
	for _, n := range []int{2, 5, 8, 9, 17, 64, 65, 100, 500, 1234} {
		tr, err := BulkLoad(Options{MinEntries: 4, MaxEntries: 8}, randomItems(int64(n), n))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Len() != n {
			t.Fatalf("n=%d: len=%d", n, tr.Len())
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestBulkLoadSearchMatchesBruteForce(t *testing.T) {
	items := randomItems(3, 400)
	tr, err := BulkLoad(Options{MinEntries: 3, MaxEntries: 7}, items)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for q := 0; q < 40; q++ {
		query := randRect(rng, 1000).Expand(rng.Float64() * 50)
		var want []int
		for _, it := range items {
			if it.Obj.Bounds().Intersects(query) {
				want = append(want, it.ID)
			}
		}
		var got []int
		tr.Search(query, func(it Item) bool { got = append(got, it.ID); return true })
		sort.Ints(got)
		sort.Ints(want)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d hits, want %d", q, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("query %d: mismatch at %d", q, i)
			}
		}
	}
}

func TestBulkLoadedTreeAcceptsInsertsAndDeletes(t *testing.T) {
	items := randomItems(5, 200)
	tr, err := BulkLoad(Options{MinEntries: 2, MaxEntries: 6}, items)
	if err != nil {
		t.Fatal(err)
	}
	// Inserts must keep all invariants.
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 100; i++ {
		tr.Insert(randRect(rng, 1000), 1000+i)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("after inserts: %v", err)
	}
	if tr.Len() != 200+100 {
		t.Fatalf("len = %d", tr.Len())
	}
}

func TestBulkLoadPacksTighterThanInsertion(t *testing.T) {
	items := randomItems(7, 1000)
	opts := Options{MinEntries: 4, MaxEntries: 8}
	packed, err := BulkLoad(opts, items)
	if err != nil {
		t.Fatal(err)
	}
	inserted := MustNew(opts)
	for _, it := range items {
		inserted.Insert(it.Obj, it.ID)
	}
	// Packed trees answer the same query visiting no more nodes than
	// insertion-built ones (usually far fewer).
	var packedVisits, insertedVisits int
	for q := 0; q < 20; q++ {
		query := geom.NewRect(float64(q)*40, float64(q)*40, float64(q)*40+150, float64(q)*40+150)
		packedVisits += packed.Search(query, func(Item) bool { return true })
		insertedVisits += inserted.Search(query, func(Item) bool { return true })
	}
	if packedVisits > insertedVisits {
		t.Fatalf("bulk-loaded tree visits more nodes (%d) than insertion-built (%d)",
			packedVisits, insertedVisits)
	}
	// And the packed tree cannot be taller.
	if packed.Height() > inserted.Height() {
		t.Fatalf("packed height %d > inserted height %d", packed.Height(), inserted.Height())
	}
}

func TestBulkLoadGeneralizationAdapter(t *testing.T) {
	items := randomItems(8, 150)
	tr, err := BulkLoad(DefaultOptions(), items)
	if err != nil {
		t.Fatal(err)
	}
	gt := tr.Generalization()
	count := 0
	seen := map[int]bool{}
	// The adapter walk itself is covered by adapter_test.go; here confirm
	// the bulk-loaded tree exposes a root covering everything and all items
	// survive the load.
	root := gt.Root()
	if root == nil {
		t.Fatal("adapter root nil")
	}
	b, _ := tr.Bounds()
	if root.Bounds() != b {
		t.Fatalf("adapter root bounds %v != tree bounds %v", root.Bounds(), b)
	}
	tr.All(func(it Item) bool {
		seen[it.ID] = true
		count++
		return true
	})
	if count != 150 {
		t.Fatalf("All saw %d items", count)
	}
}
