package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func key(a, b uint64) Key { return Key{Hi: a, Lo: b} }

func TestNewValidation(t *testing.T) {
	if _, err := New(2); err == nil {
		t.Fatal("order 2 must be rejected")
	}
	if _, err := New(3); err != nil {
		t.Fatalf("order 3 must be accepted: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(1)
}

func TestKeyLess(t *testing.T) {
	cases := []struct {
		a, b Key
		want bool
	}{
		{key(1, 0), key(2, 0), true},
		{key(2, 0), key(1, 9), false},
		{key(1, 1), key(1, 2), true},
		{key(1, 2), key(1, 1), false},
		{key(1, 1), key(1, 1), false},
	}
	for i, c := range cases {
		if got := c.a.Less(c.b); got != c.want {
			t.Errorf("case %d: %v < %v = %t", i, c.a, c.b, got)
		}
	}
}

func TestInsertContains(t *testing.T) {
	tr := MustNew(4)
	for i := uint64(0); i < 200; i++ {
		if !tr.Insert(key(i%10, i)) {
			t.Fatalf("insert %d reported duplicate", i)
		}
	}
	if tr.Len() != 200 {
		t.Fatalf("len = %d", tr.Len())
	}
	for i := uint64(0); i < 200; i++ {
		if found, _ := tr.Contains(key(i%10, i)); !found {
			t.Fatalf("key %d missing", i)
		}
	}
	if found, _ := tr.Contains(key(99, 99)); found {
		t.Fatal("phantom key found")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertDuplicateRejected(t *testing.T) {
	tr := MustNew(4)
	if !tr.Insert(key(1, 1)) {
		t.Fatal("first insert must succeed")
	}
	if tr.Insert(key(1, 1)) {
		t.Fatal("duplicate insert must report false")
	}
	if tr.Len() != 1 {
		t.Fatalf("len = %d", tr.Len())
	}
}

func TestHeightGrowsLogarithmically(t *testing.T) {
	tr := MustNew(100) // the paper's z
	for i := uint64(0); i < 50000; i++ {
		tr.Insert(key(i, 0))
	}
	// 50k keys at ≥50 keys/leaf: height 2 or 3.
	if tr.Height() < 2 || tr.Height() > 3 {
		t.Fatalf("height = %d for 50k keys at z=100", tr.Height())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRangeScan(t *testing.T) {
	tr := MustNew(4)
	for i := uint64(0); i < 100; i++ {
		tr.Insert(key(i/10, i%10))
	}
	var got []Key
	tr.Range(key(3, 0), key(5, 9), func(k Key) bool {
		got = append(got, k)
		return true
	})
	if len(got) != 30 {
		t.Fatalf("range returned %d keys, want 30", len(got))
	}
	for i := 1; i < len(got); i++ {
		if !got[i-1].Less(got[i]) {
			t.Fatal("range out of order")
		}
	}
	if got[0] != key(3, 0) || got[len(got)-1] != key(5, 9) {
		t.Fatalf("range bounds wrong: %v .. %v", got[0], got[len(got)-1])
	}
}

func TestRangeEarlyStopAndEmpty(t *testing.T) {
	tr := MustNew(4)
	for i := uint64(0); i < 50; i++ {
		tr.Insert(key(0, i))
	}
	n := 0
	tr.Range(key(0, 0), key(0, 49), func(Key) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early stop visited %d", n)
	}
	n = 0
	tr.Range(key(5, 0), key(1, 0), func(Key) bool { n++; return true })
	if n != 0 {
		t.Fatal("inverted range must be empty")
	}
	n = 0
	tr.Range(key(7, 0), key(8, 0), func(Key) bool { n++; return true })
	if n != 0 {
		t.Fatal("out-of-data range must be empty")
	}
}

func TestRangeReportsVisits(t *testing.T) {
	tr := MustNew(4)
	for i := uint64(0); i < 1000; i++ {
		tr.Insert(key(i, 0))
	}
	v := tr.Range(key(0, 0), key(999, 0), func(Key) bool { return true })
	// Full scan must walk every leaf: at order 4, ≥ 1000/4 = 250 leaves.
	if v < 250 {
		t.Fatalf("full-range visits = %d, want ≥ 250", v)
	}
	v2 := tr.Range(key(500, 0), key(500, 0), func(Key) bool { return true })
	if v2 > tr.Height()+2 {
		t.Fatalf("point-range visits = %d, want ≈ height %d", v2, tr.Height())
	}
}

func TestAllAscending(t *testing.T) {
	tr := MustNew(5)
	rng := rand.New(rand.NewSource(1))
	want := make(map[Key]bool)
	for i := 0; i < 500; i++ {
		k := key(uint64(rng.Intn(50)), uint64(rng.Intn(1000)))
		if tr.Insert(k) {
			want[k] = true
		}
	}
	var got []Key
	tr.All(func(k Key) bool { got = append(got, k); return true })
	if len(got) != len(want) {
		t.Fatalf("All returned %d keys, want %d", len(got), len(want))
	}
	for i := 1; i < len(got); i++ {
		if !got[i-1].Less(got[i]) {
			t.Fatal("All out of order")
		}
	}
}

func TestRandomInsertDeleteAgainstModel(t *testing.T) {
	// Random inserts, duplicates included, checked against a map model:
	// Insert's report, Contains, Range over random bounds, and Validate.
	for _, order := range []int{3, 4, 7, 100} {
		tr := MustNew(order)
		rng := rand.New(rand.NewSource(int64(order)))
		model := make(map[Key]bool)
		for step := 0; step < 4000; step++ {
			k := key(uint64(rng.Intn(80)), uint64(rng.Intn(80)))
			got := tr.Insert(k)
			if want := !model[k]; got != want {
				t.Fatalf("order %d step %d: Insert(%v)=%t, model %t", order, step, k, got, want)
			}
			model[k] = true
			probe := key(uint64(rng.Intn(80)), uint64(rng.Intn(80)))
			if found, _ := tr.Contains(probe); found != model[probe] {
				t.Fatalf("order %d step %d: Contains(%v)=%t, model %t", order, step, probe, found, model[probe])
			}
			if step%500 == 0 {
				if err := tr.Validate(); err != nil {
					t.Fatalf("order %d step %d: %v", order, step, err)
				}
				checkRangeAgainstModel(t, tr, model, rng)
			}
		}
		if tr.Len() != len(model) {
			t.Fatalf("order %d: len %d != model %d", order, tr.Len(), len(model))
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		checkRangeAgainstModel(t, tr, model, rng)
	}
}

// checkRangeAgainstModel compares Range over random bounds with the model's
// keys in those bounds, in ascending order.
func checkRangeAgainstModel(t *testing.T, tr *Tree, model map[Key]bool, rng *rand.Rand) {
	t.Helper()
	lo := key(uint64(rng.Intn(80)), uint64(rng.Intn(80)))
	hi := key(uint64(rng.Intn(80)), uint64(rng.Intn(80)))
	if hi.Less(lo) {
		lo, hi = hi, lo
	}
	var want []Key
	for k := range model {
		if !k.Less(lo) && !hi.Less(k) {
			want = append(want, k)
		}
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
	var got []Key
	tr.Range(lo, hi, func(k Key) bool { got = append(got, k); return true })
	if len(got) != len(want) {
		t.Fatalf("order %d: Range(%v, %v) returned %d keys, model %d", tr.Order(), lo, hi, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("order %d: Range(%v, %v) key %d = %v, model %v", tr.Order(), lo, hi, i, got[i], want[i])
		}
	}
}

func TestQuickInsertedKeysAreFound(t *testing.T) {
	f := func(raw []uint16) bool {
		tr := MustNew(5)
		uniq := make(map[Key]bool)
		for _, v := range raw {
			k := key(uint64(v%16), uint64(v/16))
			tr.Insert(k)
			uniq[k] = true
		}
		if tr.Len() != len(uniq) {
			return false
		}
		for k := range uniq {
			if found, _ := tr.Contains(k); !found {
				return false
			}
		}
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickRangeMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		tr := MustNew(4)
		var keys []Key
		seen := make(map[Key]bool)
		for i := 0; i < 200; i++ {
			k := key(uint64(rng.Intn(30)), uint64(rng.Intn(30)))
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
				tr.Insert(k)
			}
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
		lo := key(uint64(rng.Intn(30)), uint64(rng.Intn(30)))
		hi := key(uint64(rng.Intn(30)), uint64(rng.Intn(30)))
		if hi.Less(lo) {
			lo, hi = hi, lo
		}
		var want []Key
		for _, k := range keys {
			if !k.Less(lo) && !hi.Less(k) {
				want = append(want, k)
			}
		}
		var got []Key
		tr.Range(lo, hi, func(k Key) bool { got = append(got, k); return true })
		if len(got) != len(want) {
			t.Fatalf("trial %d: range %v..%v returned %d, want %d", trial, lo, hi, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: range mismatch at %d", trial, i)
			}
		}
	}
}

func TestOrderAccessor(t *testing.T) {
	tr := MustNew(17)
	if tr.Order() != 17 {
		t.Fatalf("Order = %d", tr.Order())
	}
}
