package relation

import (
	"errors"
	"fmt"
	"testing"

	"spatialjoin/internal/geom"
	"spatialjoin/internal/storage"
)

func testSchema(t *testing.T) Schema {
	t.Helper()
	s, err := NewSchema(
		Column{"id", TypeInt64},
		Column{"name", TypeString},
		Column{"price", TypeFloat64},
		Column{"location", TypePoint},
		Column{"mbr", TypeRect},
		Column{"shape", TypePolygon},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testTuple(i int) Tuple {
	f := float64(i)
	return Tuple{
		int64(i),
		fmt.Sprintf("object-%d", i),
		f * 1.5,
		geom.Pt(f, f+1),
		geom.NewRect(f, f, f+2, f+2),
		geom.RegularPolygon(geom.Pt(f, f), 1, 5),
	}
}

func newPool(t *testing.T) *storage.BufferPool {
	t.Helper()
	bp, err := storage.NewBufferPool(storage.NewDisk(2000), 64)
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

func TestNewSchemaValidation(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Error("empty schema must fail")
	}
	if _, err := NewSchema(Column{"", TypeInt64}); err == nil {
		t.Error("empty column name must fail")
	}
	if _, err := NewSchema(Column{"a", TypeInt64}, Column{"a", TypeString}); err == nil {
		t.Error("duplicate column must fail")
	}
	if _, err := NewSchema(Column{"a", Type(99)}); err == nil {
		t.Error("unknown type must fail")
	}
}

func TestSchemaLookups(t *testing.T) {
	s := testSchema(t)
	if i, ok := s.ColumnIndex("price"); !ok || i != 2 {
		t.Fatalf("ColumnIndex(price) = %d, %t", i, ok)
	}
	if _, ok := s.ColumnIndex("missing"); ok {
		t.Fatal("missing column found")
	}
	if i, ok := s.SpatialColumn(); !ok || i != 3 {
		t.Fatalf("SpatialColumn = %d, %t (want first spatial = location)", i, ok)
	}
}

func TestTypeStrings(t *testing.T) {
	names := map[Type]string{
		TypeInt64: "int64", TypeFloat64: "float64", TypeString: "string",
		TypePoint: "point", TypeRect: "rect", TypePolygon: "polygon",
	}
	for typ, want := range names {
		if typ.String() != want {
			t.Errorf("%v.String() = %q", typ, typ.String())
		}
	}
	if Type(0).String() != "Type(0)" {
		t.Errorf("unknown type string = %q", Type(0).String())
	}
	if TypeInt64.Spatial() || !TypePolygon.Spatial() {
		t.Error("Spatial() classification wrong")
	}
}

func TestValidateTuple(t *testing.T) {
	s := testSchema(t)
	if err := s.Validate(testTuple(1)); err != nil {
		t.Fatalf("valid tuple rejected: %v", err)
	}
	if err := s.Validate(Tuple{int64(1)}); err == nil {
		t.Error("short tuple must fail")
	}
	bad := testTuple(1)
	bad[0] = "not an int"
	if err := s.Validate(bad); err == nil {
		t.Error("type mismatch must fail")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := testSchema(t)
	for i := 0; i < 20; i++ {
		in := testTuple(i)
		rec, err := s.Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Decode(rec)
		if err != nil {
			t.Fatal(err)
		}
		if out[0].(int64) != in[0].(int64) || out[1].(string) != in[1].(string) {
			t.Fatalf("scalar round trip failed: %v vs %v", out, in)
		}
		if out[3].(geom.Point) != in[3].(geom.Point) {
			t.Fatal("point round trip failed")
		}
		if out[4].(geom.Rect) != in[4].(geom.Rect) {
			t.Fatal("rect round trip failed")
		}
		pin, pout := in[5].(geom.Polygon), out[5].(geom.Polygon)
		if len(pin) != len(pout) {
			t.Fatal("polygon length changed")
		}
		for j := range pin {
			if pin[j] != pout[j] {
				t.Fatal("polygon vertex changed")
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	s := testSchema(t)
	rec, _ := s.Encode(testTuple(3))
	if _, err := s.Decode(rec[:len(rec)-1]); err == nil {
		t.Error("truncated record must fail")
	}
	if _, err := s.Decode(append(rec, 0)); err == nil {
		t.Error("trailing bytes must fail")
	}
}

func TestEncodeRejectsInvalidTuple(t *testing.T) {
	s := testSchema(t)
	if _, err := s.Encode(Tuple{int64(1)}); err == nil {
		t.Fatal("encode must validate")
	}
}

func TestRelationInsertGet(t *testing.T) {
	pool := newPool(t)
	r, err := Create(pool, "objects", testSchema(t), 0.75)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		id, err := r.Insert(testTuple(i))
		if err != nil {
			t.Fatal(err)
		}
		if id != i {
			t.Fatalf("tuple id = %d, want %d", id, i)
		}
	}
	if r.Len() != 40 {
		t.Fatalf("Len = %d", r.Len())
	}
	tup, err := r.Get(17)
	if err != nil {
		t.Fatal(err)
	}
	if tup[1].(string) != "object-17" {
		t.Fatalf("Get(17) name = %v", tup[1])
	}
	if _, err := r.Get(40); err == nil {
		t.Error("out-of-range Get must fail")
	}
	if _, err := r.Get(-1); err == nil {
		t.Error("negative Get must fail")
	}
}

func TestRelationSpatialAccessor(t *testing.T) {
	pool := newPool(t)
	r, _ := Create(pool, "objects", testSchema(t), 0.75)
	r.Insert(testTuple(5))
	sp, err := r.Spatial(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Bounds() != geom.NewRect(5, 5, 7, 7) {
		t.Fatalf("spatial bounds = %v", sp.Bounds())
	}
	if _, err := r.Spatial(0, 0); err == nil {
		t.Error("non-spatial column must fail")
	}
}

func TestCreateValidation(t *testing.T) {
	pool := newPool(t)
	if _, err := Create(pool, "", testSchema(t), 0.75); err == nil {
		t.Error("empty name must fail")
	}
	if _, err := Create(pool, "x", Schema{}, 0.75); err == nil {
		t.Error("empty schema must fail")
	}
	if _, err := Create(pool, "x", testSchema(t), 0); err == nil {
		t.Error("bad fill factor must fail")
	}
}

func TestBulkLoadSequentialKeepsPageOrder(t *testing.T) {
	pool := newPool(t)
	tuples := make([]Tuple, 60)
	for i := range tuples {
		tuples[i] = testTuple(i)
	}
	r, err := BulkLoad(pool, "seq", testSchema(t), tuples, PlaceSequential, 0.75, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Page numbers must be non-decreasing in tuple-id order.
	prev := -1
	for i := 0; i < r.Len(); i++ {
		pg, err := r.PageOf(i)
		if err != nil {
			t.Fatal(err)
		}
		if pg < prev {
			t.Fatalf("sequential placement broke page order at tuple %d: %d < %d", i, pg, prev)
		}
		prev = pg
	}
}

func TestBulkLoadShuffledScattersButPreservesIDs(t *testing.T) {
	pool := newPool(t)
	tuples := make([]Tuple, 120)
	for i := range tuples {
		tuples[i] = testTuple(i)
	}
	r, err := BulkLoad(pool, "shuf", testSchema(t), tuples, PlaceShuffled, 0.75, 42)
	if err != nil {
		t.Fatal(err)
	}
	// IDs must still resolve to the right tuples.
	for _, id := range []int{0, 17, 63, 119} {
		tup, err := r.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if tup[0].(int64) != int64(id) {
			t.Fatalf("tuple %d resolved to id %v", id, tup[0])
		}
	}
	// And the physical order must differ from logical order somewhere.
	inOrder := true
	prev := -1
	for i := 0; i < r.Len(); i++ {
		pg, _ := r.PageOf(i)
		if pg < prev {
			inOrder = false
			break
		}
		prev = pg
	}
	if inOrder {
		t.Fatal("shuffled placement left tuples in page order — not shuffled")
	}
}

func TestBulkLoadShuffleDeterministic(t *testing.T) {
	tuples := make([]Tuple, 50)
	for i := range tuples {
		tuples[i] = testTuple(i)
	}
	r1, _ := BulkLoad(newPool(t), "a", testSchema(t), tuples, PlaceShuffled, 0.75, 7)
	r2, _ := BulkLoad(newPool(t), "b", testSchema(t), tuples, PlaceShuffled, 0.75, 7)
	for i := 0; i < 50; i++ {
		p1, _ := r1.PageOf(i)
		p2, _ := r2.PageOf(i)
		if p1 != p2 {
			t.Fatalf("same seed produced different layouts at tuple %d", i)
		}
	}
}

// grown creates a relation of n tuples by sequential Insert, the way the
// database grows its collections.
func grown(t *testing.T, pool *storage.BufferPool, n int) *Relation {
	t.Helper()
	r, err := Create(pool, "grown", testSchema(t), 0.75)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := r.Insert(testTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// TestRelationScanVisitsAllOnce checks the one relation scan Open makes
// hands the visitor every tuple once, decoded, under the ID it reassigns —
// which for a sequentially grown relation is its insertion ID.
func TestRelationScanVisitsAllOnce(t *testing.T) {
	pool := newPool(t)
	r := grown(t, pool, 70)
	next := 0
	o, err := Open(pool, "grown", testSchema(t), r.FileID(), 0.75, func(id int, tup Tuple) error {
		if id != next || tup[0].(int64) != int64(id) {
			t.Fatalf("visit %d got id %d holding tuple %v", next, id, tup[0])
		}
		next++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if next != 70 || o.Len() != 70 {
		t.Fatalf("Open visited %d tuples and reattached %d, want 70", next, o.Len())
	}
	for id := 0; id < 70; id++ {
		if a, b := mustRID(t, r, id), mustRID(t, o, id); a != b {
			t.Fatalf("tuple %d at %v after Open, inserted at %v", id, b, a)
		}
	}
}

func mustRID(t *testing.T, r *Relation, id int) storage.RID {
	t.Helper()
	rid, err := r.RID(id)
	if err != nil {
		t.Fatal(err)
	}
	return rid
}

// TestRelationScanEarlyStop checks a visitor error ends Open's scan at the
// tuple that raised it.
func TestRelationScanEarlyStop(t *testing.T) {
	pool := newPool(t)
	r := grown(t, pool, 30)
	count := 0
	Open(pool, "grown", testSchema(t), r.FileID(), 0.75, func(int, Tuple) error {
		if count++; count == 5 {
			return fmt.Errorf("stop")
		}
		return nil
	})
	if count != 5 {
		t.Fatalf("scan visited %d, want 5", count)
	}
}

// TestRelationScanPropagatesError checks the visitor's error is what Open
// returns.
func TestRelationScanPropagatesError(t *testing.T) {
	pool := newPool(t)
	r := grown(t, pool, 1)
	wantErr := fmt.Errorf("boom")
	_, err := Open(pool, "grown", testSchema(t), r.FileID(), 0.75, func(int, Tuple) error { return wantErr })
	if !errors.Is(err, wantErr) {
		t.Fatalf("Open error = %v, want %v", err, wantErr)
	}
}

// TestOpenRejectsUndecodableTuple checks Open decodes what it reattaches: a
// heap whose records do not decode under the schema is an error, and the
// visitor never sees a tuple.
func TestOpenRejectsUndecodableTuple(t *testing.T) {
	pool := newPool(t)
	r := grown(t, pool, 3)
	other, err := NewSchema(Column{"id", TypeInt64})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Open(pool, "grown", other, r.FileID(), 0.75, func(int, Tuple) error {
		t.Fatal("visitor called with a tuple that does not decode")
		return nil
	})
	if err == nil {
		t.Fatal("Open accepted records the schema cannot decode")
	}
}

// TestPaperTupleDensity checks that the Table 3 parameters (s=2000, v=300,
// l=0.75) yield the paper's m=5 tuples per page for a fixed-size record.
func TestPaperTupleDensity(t *testing.T) {
	pool := newPool(t)
	s, _ := NewSchema(Column{"mbr", TypeRect}, Column{"pad", TypeString})
	// Record of ~290 bytes + 4-byte slot ≈ the paper's v=300 tuple; the
	// page budget is l·(s−header) = 1497 bytes, so 5 tuples fit and 6 don't.
	pad := make([]byte, 290-32-4)
	tuples := make([]Tuple, 200)
	for i := range tuples {
		tuples[i] = Tuple{geom.NewRect(0, 0, 1, 1), string(pad)}
	}
	r, err := BulkLoad(pool, "dense", s, tuples, PlaceSequential, 0.75, 0)
	if err != nil {
		t.Fatal(err)
	}
	perPage := float64(r.Len()) / float64(r.NumPages())
	if perPage < 4.4 || perPage > 5.1 {
		t.Fatalf("tuples/page = %g, want ≈5 (paper's m)", perPage)
	}
}

func TestRelationAccessors(t *testing.T) {
	pool := newPool(t)
	sch := testSchema(t)
	r, _ := Create(pool, "objects", sch, 0.75)
	if r.Name() != "objects" {
		t.Fatalf("Name = %q", r.Name())
	}
	if len(r.Schema().Columns) != len(sch.Columns) {
		t.Fatal("Schema accessor broken")
	}
	if _, err := r.RID(0); err == nil {
		t.Fatal("RID of empty relation must fail")
	}
	r.Insert(testTuple(0))
	rid, err := r.RID(0)
	if err != nil {
		t.Fatal(err)
	}
	if rid.Page.Page != 0 {
		t.Fatalf("first tuple on page %d", rid.Page.Page)
	}
}
