package joinindex

import (
	"math/rand"
	"testing"
)

func TestAddContainsRemove(t *testing.T) {
	ix := MustNew(4)
	added, err := ix.Add(1, 2)
	if err != nil || !added {
		t.Fatalf("Add = %t, %v", added, err)
	}
	if !ix.Contains(1, 2) {
		t.Fatal("pair missing after Add")
	}
	if ix.Contains(2, 1) {
		t.Fatal("pairs are directional")
	}
	added, _ = ix.Add(1, 2)
	if added {
		t.Fatal("duplicate Add must report false")
	}
	if ix.Len() != 1 {
		t.Fatalf("len = %d", ix.Len())
	}
}

func TestNegativeIDsRejected(t *testing.T) {
	ix := MustNew(4)
	if _, err := ix.Add(-1, 2); err == nil {
		t.Fatal("negative r must error")
	}
	if _, err := ix.Add(1, -2); err == nil {
		t.Fatal("negative s must error")
	}
	if ix.Contains(-1, 0) {
		t.Fatal("negative ids must be inert")
	}
	if ix.MatchesOfR(-1, func(int) bool { return true }) != 0 {
		t.Fatal("negative MatchesOfR must visit nothing")
	}
}

func TestNewRejectsBadOrder(t *testing.T) {
	if _, err := New(2); err == nil {
		t.Fatal("order 2 must fail")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew must panic")
		}
	}()
	MustNew(1)
}

func TestMatchesBothDirections(t *testing.T) {
	ix := MustNew(4)
	// r=3 matches s ∈ {1, 5, 9}; r=2 matches s=5 only.
	pairs := [][2]int{{3, 1}, {3, 5}, {3, 9}, {2, 5}}
	for _, p := range pairs {
		ix.Add(p[0], p[1])
	}
	var ss []int
	ix.MatchesOfR(3, func(s int) bool { ss = append(ss, s); return true })
	if len(ss) != 3 || ss[0] != 1 || ss[1] != 5 || ss[2] != 9 {
		t.Fatalf("MatchesOfR(3) = %v", ss)
	}
	ss = nil
	ix.MatchesOfR(2, func(s int) bool { ss = append(ss, s); return true })
	if len(ss) != 1 || ss[0] != 5 {
		t.Fatalf("MatchesOfR(2) = %v", ss)
	}
	// Early stop.
	n := 0
	ix.MatchesOfR(3, func(int) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestAllPairsOrdered(t *testing.T) {
	ix := MustNew(4)
	rng := rand.New(rand.NewSource(1))
	want := make(map[[2]int]bool)
	for i := 0; i < 500; i++ {
		r, s := rng.Intn(40), rng.Intn(40)
		ix.Add(r, s)
		want[[2]int{r, s}] = true
	}
	var got [][2]int
	ix.AllPairs(func(r, s int) bool { got = append(got, [2]int{r, s}); return true })
	if len(got) != len(want) {
		t.Fatalf("AllPairs returned %d, want %d", len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a[0] > b[0] || (a[0] == b[0] && a[1] >= b[1]) {
			t.Fatal("AllPairs out of order")
		}
	}
	for _, p := range got {
		if !want[p] {
			t.Fatalf("phantom pair %v", p)
		}
	}
}

func TestMaintainInsertR(t *testing.T) {
	ix := MustNew(4)
	// New tuple r=5 matches even s only, among 100 S tuples.
	cost, err := ix.MaintainInsertR(5, 100, func(s int) (bool, error) {
		return s%2 == 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The paper's point: maintenance costs a full scan of S.
	if cost.Evaluations != 100 {
		t.Fatalf("evaluations = %d, want 100", cost.Evaluations)
	}
	if cost.PairsAdded != 50 || ix.Len() != 50 {
		t.Fatalf("pairs added = %d, len = %d", cost.PairsAdded, ix.Len())
	}
	var ss []int
	ix.MatchesOfR(5, func(s int) bool { ss = append(ss, s); return true })
	if len(ss) != 50 || ss[0] != 0 || ss[49] != 98 {
		t.Fatalf("match set wrong: %d entries", len(ss))
	}
}

func TestMaintainInsertS(t *testing.T) {
	ix := MustNew(4)
	cost, err := ix.MaintainInsertS(9, 30, func(r int) (bool, error) {
		return r < 3, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cost.Evaluations != 30 || cost.PairsAdded != 3 {
		t.Fatalf("cost = %+v", cost)
	}
	if !ix.Contains(0, 9) || !ix.Contains(2, 9) || ix.Contains(3, 9) {
		t.Fatal("maintained pairs wrong")
	}
}

func TestMaintainPropagatesError(t *testing.T) {
	ix := MustNew(4)
	calls := 0
	_, err := ix.MaintainInsertR(1, 10, func(s int) (bool, error) {
		calls++
		if s == 4 {
			return false, errBoom
		}
		return true, nil
	})
	if err == nil {
		t.Fatal("error must propagate")
	}
	if calls != 5 {
		t.Fatalf("maintenance continued after error: %d calls", calls)
	}
}

var errBoom = errTest("boom")

type errTest string

func (e errTest) Error() string { return string(e) }

func TestValidateDetectsConsistency(t *testing.T) {
	ix := MustNew(4)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		ix.Add(rng.Intn(100), rng.Intn(100))
		if i%250 == 0 {
			if err := ix.Validate(); err != nil {
				t.Fatalf("after %d adds: %v", i+1, err)
			}
		}
	}
	if err := ix.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMatchesVisitCounts(t *testing.T) {
	ix := MustNew(100) // paper's z
	for r := 0; r < 200; r++ {
		for s := 0; s < 20; s++ {
			ix.Add(r, s)
		}
	}
	v := ix.MatchesOfR(50, func(int) bool { return true })
	// 20 matches in one key range: a root-to-leaf path plus at most a few
	// chained leaves.
	if v > ix.Height()+3 {
		t.Fatalf("visits = %d for a 20-match range at z=100 (height %d)", v, ix.Height())
	}
}

func TestOrderAccessor(t *testing.T) {
	ix := MustNew(42)
	if ix.Order() != 42 {
		t.Fatalf("Order = %d", ix.Order())
	}
}

func TestPagesIsLeafCharge(t *testing.T) {
	ix := MustNew(4)
	for i, want := range []int64{0, 1, 1, 1, 1, 2, 2, 2, 2, 3} {
		if got := ix.Pages(); got != want {
			t.Fatalf("%d pairs: Pages = %d, want ⌈%d/4⌉ = %d", i, got, i, want)
		}
		ix.Add(i, i)
	}
}
