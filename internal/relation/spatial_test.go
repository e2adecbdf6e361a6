package relation

import (
	"bytes"
	"testing"

	"spatialjoin/internal/geom"
)

// layoutSchema puts a column of every type before a spatial column of every
// type, with a string after them all, so a geometry-only read must skip
// each kind of value and stop before the last.
func layoutSchema(t testing.TB) Schema {
	t.Helper()
	s, err := NewSchema(
		Column{"i", TypeInt64},
		Column{"f", TypeFloat64},
		Column{"s", TypeString},
		Column{"pt", TypePoint},
		Column{"r", TypeRect},
		Column{"pg", TypePolygon},
		Column{"g", TypeGeometry},
		Column{"tail", TypeString},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// layoutTuples returns one layoutSchema tuple per geometry tag.
func layoutTuples() []Tuple {
	tagged := []geom.Spatial{
		geom.Pt(3, 4),
		geom.NewRect(1, 2, 5, 7),
		geom.RegularPolygon(geom.Pt(2, 2), 1, 6),
		geom.Segment{A: geom.Pt(0, 1), B: geom.Pt(8, 9)},
	}
	out := make([]Tuple, len(tagged))
	for i, g := range tagged {
		out[i] = Tuple{int64(-7), 2.5, "payload", geom.Pt(-1, 1),
			geom.NewRect(0, 0, 3, 3), geom.RegularPolygon(geom.Pt(9, 9), 2, 5), g, "after"}
	}
	return out
}

// deref returns a rectangle read into a caller's dst by value, so it
// compares equal to the value Decode returns.
func deref(v geom.Spatial) geom.Spatial {
	if r, ok := v.(*geom.Rect); ok {
		return *r
	}
	return v
}

// sameShape reports whether a and b encode to the same bytes: equal values,
// NaN coordinates included.
func sameShape(a, b geom.Spatial) bool {
	return bytes.Equal(appendGeometry(nil, deref(a)), appendGeometry(nil, b))
}

// checkSpatialColumns compares the geometry-only read of every spatial
// column of rec with Schema.Decode's value for it.
func checkSpatialColumns(t *testing.T, s Schema, rec []byte, want Tuple) {
	t.Helper()
	for col, c := range s.Columns {
		if !c.Type.Spatial() {
			continue
		}
		var dst geom.Rect
		got, err := s.decodeSpatial(rec, col, &dst)
		if err != nil {
			t.Fatalf("column %q: %v", c.Name, err)
		}
		if _, isRect := want[col].(geom.Rect); isRect && got != geom.Spatial(&dst) {
			t.Errorf("column %q: a rectangle must be returned as dst, got %T", c.Name, got)
		}
		if !sameShape(got, want[col].(geom.Spatial)) {
			t.Errorf("column %q: geometry-only read %#v, Decode %#v", c.Name, deref(got), want[col])
		}
	}
}

// TestSpatialColumnMatchesDecode checks the geometry-only read against the
// full decode for every column type before the shape, every geometry tag,
// and the collection layout (a payload string, then the shape), both on a
// record and through Relation.Spatial's read of the stored page.
func TestSpatialColumnMatchesDecode(t *testing.T) {
	pool := newPool(t)
	for _, c := range []struct {
		name   string
		schema Schema
		tuples []Tuple
	}{
		{"every type", layoutSchema(t), layoutTuples()},
		{"collection", geomSchema(t), []Tuple{
			{"a", geom.NewRect(0, 0, 10, 10)},
			{"", geom.Pt(1, 2)},
			{"polygon", geom.RegularPolygon(geom.Pt(5, 5), 3, 7)},
			{"seg", geom.Segment{A: geom.Pt(1, 1), B: geom.Pt(2, 3)}},
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rel, err := Create(pool, c.name, c.schema, 0.75)
			if err != nil {
				t.Fatal(err)
			}
			for _, tup := range c.tuples {
				rec, err := c.schema.Encode(nil, tup)
				if err != nil {
					t.Fatal(err)
				}
				decoded, err := c.schema.Decode(rec)
				if err != nil {
					t.Fatal(err)
				}
				checkSpatialColumns(t, c.schema, rec, decoded)

				id, err := rel.Insert(tup)
				if err != nil {
					t.Fatal(err)
				}
				stored, err := rel.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				for col, cc := range c.schema.Columns {
					if !cc.Type.Spatial() {
						continue
					}
					var dst geom.Rect
					got, err := rel.Spatial(id, col, nil, &dst)
					if err != nil {
						t.Fatal(err)
					}
					if !sameShape(got, stored[col].(geom.Spatial)) {
						t.Errorf("tuple %d column %q: Spatial %#v, Get %#v", id, cc.Name, deref(got), stored[col])
					}
				}
			}
		})
	}
}

// TestSpatialColumnRejectsBadRecords cuts a record at every length and
// garbles its geometry tag and its length prefixes: each read returns an
// error and none panics. A non-spatial or out-of-range column is an error.
func TestSpatialColumnRejectsBadRecords(t *testing.T) {
	s := geomSchema(t)
	rec, err := s.Encode(nil, Tuple{"name", geom.RegularPolygon(geom.Pt(0, 0), 1, 5)})
	if err != nil {
		t.Fatal(err)
	}
	var dst geom.Rect
	for n := 0; n < len(rec); n++ {
		if _, err := s.decodeSpatial(rec[:n], 1, &dst); err == nil {
			t.Fatalf("record cut to %d of %d bytes decoded", n, len(rec))
		}
		if _, err := s.decodeSpatial(rec[:n], 1, nil); err == nil {
			t.Fatalf("record cut to %d of %d bytes passed the check", n, len(rec))
		}
	}
	tag := 4 + len("name")
	for _, garble := range []struct {
		name string
		at   int
		b    byte
	}{
		{"unknown tag", tag, 99},
		{"zero tag", tag, 0},
		{"string length past the end", 3, 0x7f},
		{"vertex count past the end", tag + 4, 0xff},
	} {
		bad := append([]byte(nil), rec...)
		bad[garble.at] = garble.b
		if _, err := s.decodeSpatial(bad, 1, &dst); err == nil {
			t.Errorf("%s: decoded", garble.name)
		}
		if _, err := s.decodeSpatial(bad, 1, nil); err == nil {
			t.Errorf("%s: passed the check", garble.name)
		}
	}
	if _, err := s.decodeSpatial(rec, 0, &dst); err == nil {
		t.Error("a string column read as a shape")
	}
	for _, col := range []int{-1, 2} {
		if _, err := s.decodeSpatial(rec, col, &dst); err == nil {
			t.Errorf("column %d out of range read", col)
		}
	}
}

// TestSpatialRectReadAllocatesNothing reads a rectangle through
// Relation.Spatial, page resident, in the collection layout and from a
// rectangle column: the value lands in dst and nothing is allocated, which
// is what lets θ read its operand from the heap on every evaluation.
func TestSpatialRectReadAllocatesNothing(t *testing.T) {
	pool := newPool(t)
	rect := geom.NewRect(1, 2, 3, 4)
	rectSchema, err := NewSchema(Column{"id", TypeInt64}, Column{"mbr", TypeRect})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		schema Schema
		tuple  Tuple
	}{
		{"geometry", geomSchema(t), Tuple{"payload", rect}},
		{"rect", rectSchema, Tuple{int64(1), rect}},
	} {
		rel, err := Create(pool, c.name, c.schema, 0.75)
		if err != nil {
			t.Fatal(err)
		}
		id, err := rel.Insert(c.tuple)
		if err != nil {
			t.Fatal(err)
		}
		var dst geom.Rect
		var got geom.Spatial
		allocs := testing.AllocsPerRun(100, func() {
			if got, err = rel.Spatial(id, 1, nil, &dst); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocations per rectangle read, want 0", c.name, allocs)
		}
		if got != geom.Spatial(&dst) || dst != rect {
			t.Errorf("%s: read %v into %v, want %v in dst", c.name, got, dst, rect)
		}
	}
}

// TestDiscardedReadBuildsNothing reads a polygon through Relation.Spatial
// with no dst, as the sites that discard the value do: nothing is built or
// allocated and nil is returned, while a record whose shape is cut short
// still fails.
func TestDiscardedReadBuildsNothing(t *testing.T) {
	pool := newPool(t)
	rel, err := Create(pool, "polygons", geomSchema(t), 0.75)
	if err != nil {
		t.Fatal(err)
	}
	id, err := rel.Insert(Tuple{"payload", geom.RegularPolygon(geom.Pt(5, 5), 3, 12)})
	if err != nil {
		t.Fatal(err)
	}
	var got geom.Spatial
	allocs := testing.AllocsPerRun(100, func() {
		if got, err = rel.Spatial(id, 1, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || got != nil {
		t.Errorf("a discarded polygon read allocates %.1f times and returns %v, want 0 and nil", allocs, got)
	}
	rec, err := rel.schema.Encode(nil, Tuple{"payload", geom.RegularPolygon(geom.Pt(5, 5), 3, 12)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rel.schema.decodeSpatial(rec[:len(rec)-1], 1, nil); err == nil {
		t.Error("a polygon one byte short passed the check")
	}
}

// FuzzSpatialColumn feeds arbitrary bytes to the geometry-only read of every
// spatial column, in the every-type and the collection layouts. It must
// never panic, and wherever Schema.Decode accepts the record, the read must
// return Decode's value for the column. The check a read with no dst makes
// fails exactly where the read does.
func FuzzSpatialColumn(f *testing.F) {
	schemas := []Schema{layoutSchema(f), geomSchema(f)}
	for _, tup := range layoutTuples() {
		rec, err := schemas[0].Encode(nil, tup)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec)
		f.Add(rec[:len(rec)/2])
	}
	for _, g := range []geom.Spatial{geom.NewRect(0, 0, 1, 1), geom.Pt(1, 1),
		geom.RegularPolygon(geom.Pt(0, 0), 1, 4), geom.Segment{B: geom.Pt(1, 1)}} {
		rec, err := schemas[1].Encode(nil, Tuple{"x", g})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(rec)
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		for _, s := range schemas {
			decoded, decErr := s.Decode(rec)
			for col, c := range s.Columns {
				if !c.Type.Spatial() {
					continue
				}
				var dst geom.Rect
				got, err := s.decodeSpatial(rec, col, &dst)
				if _, chkErr := s.decodeSpatial(rec, col, nil); (chkErr == nil) != (err == nil) {
					t.Fatalf("column %q: the read fails with %v, the check with %v", c.Name, err, chkErr)
				}
				if decErr != nil {
					continue
				}
				if err != nil {
					t.Fatalf("column %q: Decode accepts the record, the geometry-only read fails: %v", c.Name, err)
				}
				if !sameShape(got, decoded[col].(geom.Spatial)) {
					t.Fatalf("column %q: geometry-only read %#v, Decode %#v", c.Name, deref(got), decoded[col])
				}
			}
		}
	})
}

// TestDecodeBoundsMatchesDecode checks the bounds-only read Open makes
// against the full decode, for every geometry tag in every spatial column:
// it fails exactly where Decode does — on every cut of a record and on a
// trailing byte — and otherwise returns the Bounds of Decode's value.
func TestDecodeBoundsMatchesDecode(t *testing.T) {
	s := layoutSchema(t)
	for _, tup := range layoutTuples() {
		whole, err := s.Encode(nil, tup)
		if err != nil {
			t.Fatal(err)
		}
		recs := [][]byte{append(whole[:len(whole):len(whole)], 0)} // a trailing byte
		for n := 0; n <= len(whole); n++ {
			recs = append(recs, whole[:n])
		}
		for _, rec := range recs {
			decoded, decErr := s.Decode(rec)
			for col, c := range s.Columns {
				if !c.Type.Spatial() {
					continue
				}
				b, err := s.decodeBounds(rec, col)
				if (err == nil) != (decErr == nil) {
					t.Fatalf("%d of %d bytes, column %q: bounds read fails with %v, Decode with %v", len(rec), len(whole), c.Name, err, decErr)
				}
				if err == nil && !sameShape(b, decoded[col].(geom.Spatial).Bounds()) {
					t.Fatalf("column %q: bounds %v, Decode's value bounds %v", c.Name, b, decoded[col].(geom.Spatial).Bounds())
				}
			}
		}
	}
}
