package relation

import (
	"testing"

	"spatialjoin/internal/geom"
)

func geomSchema(t testing.TB) Schema {
	t.Helper()
	s, err := NewSchema(
		Column{"name", TypeString},
		Column{"shape", TypeGeometry},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGeometryTypeIsSpatial(t *testing.T) {
	if !TypeGeometry.Spatial() {
		t.Fatal("TypeGeometry must be spatial")
	}
	if TypeGeometry.String() != "geometry" {
		t.Fatalf("name = %q", TypeGeometry.String())
	}
	s := geomSchema(t)
	if i, ok := s.SpatialColumn(); !ok || i != 1 {
		t.Fatalf("SpatialColumn = %d, %t", i, ok)
	}
}

func TestGeometryRoundTripAllKinds(t *testing.T) {
	s := geomSchema(t)
	shapes := []geom.Spatial{
		geom.Pt(3, 4),
		geom.NewRect(0, 1, 2, 3),
		geom.RegularPolygon(geom.Pt(5, 5), 2, 7),
		geom.Segment{A: geom.Pt(0, 0), B: geom.Pt(9, 9)},
	}
	for i, shape := range shapes {
		rec, err := s.Encode(nil, Tuple{"obj", shape})
		if err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
		out, err := s.Decode(rec)
		if err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
		got, ok := out[1].(geom.Spatial)
		if !ok {
			t.Fatalf("shape %d: decoded %T, not a shape", i, out[1])
		}
		if got.Bounds() != shape.Bounds() {
			t.Fatalf("shape %d: bounds %v != %v", i, got.Bounds(), shape.Bounds())
		}
		// Concrete type must survive.
		switch shape.(type) {
		case geom.Point:
			if _, ok := got.(geom.Point); !ok {
				t.Fatalf("shape %d: type lost, got %T", i, got)
			}
		case geom.Rect:
			if _, ok := got.(geom.Rect); !ok {
				t.Fatalf("shape %d: type lost, got %T", i, got)
			}
		case geom.Polygon:
			if _, ok := got.(geom.Polygon); !ok {
				t.Fatalf("shape %d: type lost, got %T", i, got)
			}
		case geom.Segment:
			if _, ok := got.(geom.Segment); !ok {
				t.Fatalf("shape %d: type lost, got %T", i, got)
			}
		}
	}
}

func TestGeometryValidateRejectsNonSpatial(t *testing.T) {
	s := geomSchema(t)
	if err := s.Validate(Tuple{"x", "not a shape"}); err == nil {
		t.Fatal("string in geometry column must fail")
	}
}

func TestGeometryDecodeErrors(t *testing.T) {
	s := geomSchema(t)
	rec, _ := s.Encode(nil, Tuple{"x", geom.RegularPolygon(geom.Pt(0, 0), 1, 5)})
	for cut := 1; cut < 20; cut += 4 {
		if _, err := s.Decode(rec[:len(rec)-cut]); err == nil {
			t.Fatalf("truncation by %d must fail", cut)
		}
	}
	// Corrupt the geometry tag (first byte after the string).
	bad := append([]byte(nil), rec...)
	bad[4+1] = 99
	if _, err := s.Decode(bad); err == nil {
		t.Fatal("unknown geometry tag must fail")
	}
}

// TestGeometryUnknownSpatialIsRejected: a shape of a type the encoding has
// no tag for fails validation, so Encode never encodes it, and the buffer
// it was to extend comes back as it was.
func TestGeometryUnknownSpatialIsRejected(t *testing.T) {
	s := geomSchema(t)
	buf := []byte("kept")
	out, err := s.Encode(buf, Tuple{"x", customSpatial{}})
	if err == nil {
		t.Fatal("a shape of an unknown type must fail")
	}
	if string(out) != "kept" {
		t.Fatalf("a rejected tuple changed the buffer to %q", out)
	}
}

type customSpatial struct{}

func (customSpatial) Bounds() geom.Rect { return geom.NewRect(1, 2, 3, 4) }
