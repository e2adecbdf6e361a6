package geom

import (
	"math"
	"testing"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPointDistance(t *testing.T) {
	if d := Pt(0, 0).DistanceTo(Pt(3, 4)); !almostEq(d, 5) {
		t.Fatalf("distance = %g, want 5", d)
	}
}

func TestPointDistanceSymmetric(t *testing.T) {
	p, q := Pt(-1.5, 2), Pt(7, -3.25)
	if p.DistanceTo(q) != q.DistanceTo(p) {
		t.Fatal("distance not symmetric")
	}
}

func TestPointArithmetic(t *testing.T) {
	p := Pt(1, 2).Add(Pt(3, 4))
	if p != Pt(4, 6) {
		t.Fatalf("Add = %v", p)
	}
	q := Pt(4, 6).Sub(Pt(1, 2))
	if q != Pt(3, 4) {
		t.Fatalf("Sub = %v", q)
	}
	s := Pt(2, -3).Scale(2)
	if s != Pt(4, -6) {
		t.Fatalf("Scale = %v", s)
	}
}

func TestPointCrossDot(t *testing.T) {
	if c := Pt(1, 0).Cross(Pt(0, 1)); !almostEq(c, 1) {
		t.Fatalf("cross = %g", c)
	}
	if d := Pt(1, 2).Dot(Pt(3, 4)); !almostEq(d, 11) {
		t.Fatalf("dot = %g", d)
	}
}

func TestPointNorthwestOf(t *testing.T) {
	cases := []struct {
		p, q Point
		want bool
	}{
		{Pt(0, 1), Pt(1, 0), true},   // west and north
		{Pt(1, 1), Pt(1, 0), false},  // same X
		{Pt(0, 0), Pt(1, 0), false},  // same Y
		{Pt(2, 2), Pt(1, 1), false},  // northeast
		{Pt(-5, 9), Pt(0, 0), true},  // far northwest
		{Pt(0, -1), Pt(1, 0), false}, // southwest
	}
	for i, c := range cases {
		if got := c.p.NorthwestOf(c.q); got != c.want {
			t.Errorf("case %d: %v NW of %v = %t, want %t", i, c.p, c.q, got, c.want)
		}
	}
}

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(5, 7, 1, 2)
	want := Rect{1, 2, 5, 7}
	if r != want {
		t.Fatalf("NewRect = %v, want %v", r, want)
	}
	if !r.Valid() {
		t.Fatal("normalized rect should be valid")
	}
}

func TestRectValid(t *testing.T) {
	if (Rect{1, 1, 0, 2}).Valid() {
		t.Error("MinX > MaxX should be invalid")
	}
	if (Rect{0, 2, 1, 1}).Valid() {
		t.Error("MinY > MaxY should be invalid")
	}
	if !(Rect{1, 1, 1, 1}).Valid() {
		t.Error("degenerate point rect should be valid")
	}
	if (Rect{math.NaN(), 0, 1, 1}).Valid() {
		t.Error("NaN rect should be invalid")
	}
}

func TestRectFromPoints(t *testing.T) {
	r := RectFromPoints(Pt(1, 5), Pt(-2, 3), Pt(4, -1))
	want := Rect{-2, -1, 4, 5}
	if r != want {
		t.Fatalf("RectFromPoints = %v, want %v", r, want)
	}
}

func TestRectFromPointsEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty point list")
		}
	}()
	RectFromPoints()
}

func TestRectMetrics(t *testing.T) {
	r := Rect{0, 0, 4, 3}
	if r.Width() != 4 || r.Height() != 3 {
		t.Fatalf("dims = %g x %g", r.Width(), r.Height())
	}
	if r.Area() != 12 {
		t.Fatalf("area = %g", r.Area())
	}
	if r.Margin() != 7 {
		t.Fatalf("margin = %g", r.Margin())
	}
	if r.Center() != Pt(2, 1.5) {
		t.Fatalf("center = %v", r.Center())
	}
}

func TestRectContainsPoint(t *testing.T) {
	r := Rect{0, 0, 2, 2}
	for _, p := range []Point{Pt(1, 1), Pt(0, 0), Pt(2, 2), Pt(0, 2)} {
		if !r.Contains(p) {
			t.Errorf("%v should contain %v", r, p)
		}
	}
	for _, p := range []Point{Pt(-0.1, 1), Pt(1, 2.1), Pt(3, 3)} {
		if r.Contains(p) {
			t.Errorf("%v should not contain %v", r, p)
		}
	}
}

func TestRectContainsRect(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	if !r.ContainsRect(Rect{1, 1, 9, 9}) {
		t.Error("strict containment failed")
	}
	if !r.ContainsRect(r) {
		t.Error("a rect contains itself")
	}
	if r.ContainsRect(Rect{1, 1, 11, 9}) {
		t.Error("overhanging rect is not contained")
	}
	if r.ContainsRect(Rect{20, 20, 30, 30}) {
		t.Error("disjoint rect is not contained")
	}
}

func TestRectIntersects(t *testing.T) {
	r := Rect{0, 0, 2, 2}
	cases := []struct {
		o    Rect
		want bool
	}{
		{Rect{1, 1, 3, 3}, true},                                                // corner overlap
		{Rect{2, 2, 3, 3}, true},                                                // touching corner counts
		{Rect{2.1, 0, 3, 2}, false} /* gap */, {Rect{0.5, 0.5, 1.5, 1.5}, true}, // contained
		{Rect{-1, -1, 3, 3}, true}, // containing
		{Rect{0, 3, 2, 4}, false},  // above
	}
	for i, c := range cases {
		if got := r.Intersects(c.o); got != c.want {
			t.Errorf("case %d: Intersects(%v) = %t, want %t", i, c.o, got, c.want)
		}
		if got := c.o.Intersects(r); got != c.want {
			t.Errorf("case %d: intersection must be symmetric", i)
		}
	}
}

func TestRectIntersection(t *testing.T) {
	a := Rect{0, 0, 4, 4}
	b := Rect{2, 2, 6, 6}
	got, ok := a.Intersection(b)
	if !ok || got != (Rect{2, 2, 4, 4}) {
		t.Fatalf("Intersection = %v, %t", got, ok)
	}
	if _, ok := a.Intersection(Rect{5, 5, 6, 6}); ok {
		t.Fatal("disjoint rects must report ok=false")
	}
}

func TestRectUnion(t *testing.T) {
	a := Rect{0, 0, 1, 1}
	b := Rect{2, -1, 3, 0.5}
	got := a.Union(b)
	want := Rect{0, -1, 3, 1}
	if got != want {
		t.Fatalf("Union = %v, want %v", got, want)
	}
}

func TestRectExpand(t *testing.T) {
	r := Rect{0, 0, 2, 2}.Expand(1)
	if r != (Rect{-1, -1, 3, 3}) {
		t.Fatalf("Expand = %v", r)
	}
	if got := (Rect{0, 0, 4, 4}).Expand(-1); got != (Rect{1, 1, 3, 3}) {
		t.Fatalf("negative Expand = %v", got)
	}
}

func TestRectEnlargement(t *testing.T) {
	r := Rect{0, 0, 2, 2}
	if e := r.Enlargement(Rect{1, 1, 2, 2}); !almostEq(e, 0) {
		t.Fatalf("no growth expected, got %g", e)
	}
	if e := r.Enlargement(Rect{0, 0, 4, 2}); !almostEq(e, 4) {
		t.Fatalf("Enlargement = %g, want 4", e)
	}
}

func TestRectMinDistance(t *testing.T) {
	a := Rect{0, 0, 1, 1}
	cases := []struct {
		b    Rect
		want float64
	}{
		{Rect{0.5, 0.5, 2, 2}, 0},            // overlapping
		{Rect{3, 0, 4, 1}, 2},                // horizontal gap
		{Rect{0, 4, 1, 5}, 3},                // vertical gap
		{Rect{4, 5, 6, 7}, math.Hypot(3, 4)}, // diagonal gap
		{Rect{1, 1, 2, 2}, 0},                // touching corner
	}
	for i, c := range cases {
		if d := a.MinDistance(c.b); !almostEq(d, c.want) {
			t.Errorf("case %d: MinDistance = %g, want %g", i, d, c.want)
		}
		if d := c.b.MinDistance(a); !almostEq(d, c.want) {
			t.Errorf("case %d: MinDistance not symmetric", i)
		}
	}
}

func TestRectMinDistanceToPoint(t *testing.T) {
	r := Rect{0, 0, 2, 2}
	if d := r.MinDistanceToPoint(Pt(1, 1)); d != 0 {
		t.Fatalf("inside point distance = %g", d)
	}
	if d := r.MinDistanceToPoint(Pt(5, 6)); !almostEq(d, 5) {
		t.Fatalf("outside distance = %g, want 5", d)
	}
}

func TestNorthwestQuadrant(t *testing.T) {
	r := Rect{2, 2, 4, 4}
	q := r.NorthwestQuadrant()
	// The quadrant reaches left and up without bound, and is delimited by
	// the right tangent x=4 and the lower tangent y=2 (Figure 5).
	if !math.IsInf(q.MinX, -1) || !math.IsInf(q.MaxY, 1) {
		t.Fatalf("quadrant should be unbounded NW: %v", q)
	}
	if q.MaxX != 4 || q.MinY != 2 {
		t.Fatalf("quadrant tangents wrong: %v", q)
	}
	// An object strictly southeast of r must miss the quadrant.
	if q.Intersects(Rect{5, 0, 6, 1}) {
		t.Error("SE rect should not intersect NW quadrant")
	}
	// An object overlapping r's NW corner must hit it.
	if !q.Intersects(Rect{0, 5, 1, 6}) {
		t.Error("NW rect should intersect NW quadrant")
	}
}

func TestNWQuadrantIsSoundFilter(t *testing.T) {
	// Whenever the centerpoint of a is NW of the centerpoint of b, the MBR
	// of a must intersect the NW quadrant of the MBR of b. This is the
	// soundness condition Table 1 relies on.
	a := Rect{0, 8, 1, 9}
	b := Rect{5, 0, 7, 2}
	if !a.Center().NorthwestOf(b.Center()) {
		t.Fatal("test setup: expected NW relation")
	}
	if !b.NorthwestQuadrant().Intersects(a) {
		t.Fatal("Θ filter rejected a genuine θ match")
	}
}

func TestRectVerticesAndPolygon(t *testing.T) {
	r := Rect{0, 0, 2, 1}
	v := r.Vertices()
	if v[0] != Pt(0, 0) || v[2] != Pt(2, 1) {
		t.Fatalf("vertices = %v", v)
	}
	pg := r.ToPolygon()
	if !almostEq(pg.Area(), 2) {
		t.Fatalf("polygon area = %g, want 2", pg.Area())
	}
	if pg.SignedArea() <= 0 {
		t.Fatal("ToPolygon should be counterclockwise")
	}
}

func TestCenterOf(t *testing.T) {
	r := Rect{0, 0, 2, 2}
	if CenterOf(r) != Pt(1, 1) {
		t.Fatalf("CenterOf rect = %v", CenterOf(r))
	}
	c := centeredRect{Rect: r, c: Pt(0.25, 0.25)}
	if CenterOf(c) != Pt(0.25, 0.25) {
		t.Fatal("explicit centerpoint should win")
	}
}

// centeredRect gives a Rect an explicit, off-center centerpoint.
type centeredRect struct {
	Rect
	c Point
}

func (c centeredRect) Centerpoint() Point { return c.c }

func TestPointBounds(t *testing.T) {
	p := Pt(3, 4)
	if p.Bounds() != (Rect{3, 4, 3, 4}) {
		t.Fatalf("point bounds = %v", p.Bounds())
	}
	if p.Bounds().Area() != 0 {
		t.Fatal("point MBR must have zero area")
	}
}

func TestStringers(t *testing.T) {
	if s := Pt(1, 2).String(); s != "(1, 2)" {
		t.Errorf("Point.String = %q", s)
	}
	if s := (Rect{0, 1, 2, 3}).String(); s != "[0,2]x[1,3]" {
		t.Errorf("Rect.String = %q", s)
	}
}

func TestRectMaxDistance(t *testing.T) {
	a := Rect{0, 0, 1, 1}
	// Identical unit squares: farthest corners are the diagonal √2.
	if d := a.MaxDistance(a); !almostEq(d, math.Sqrt2) {
		t.Fatalf("self MaxDistance = %g", d)
	}
	b := Rect{3, 0, 4, 1}
	// Farthest pair: (0,0)/(0,1) to (4,1)/(4,0) → hypot(4,1).
	if d := a.MaxDistance(b); !almostEq(d, math.Hypot(4, 1)) {
		t.Fatalf("MaxDistance = %g, want %g", d, math.Hypot(4, 1))
	}
	if a.MaxDistance(b) != b.MaxDistance(a) {
		t.Fatal("MaxDistance must be symmetric")
	}
	// MaxDistance always dominates MinDistance.
	if a.MaxDistance(b) < a.MinDistance(b) {
		t.Fatal("MaxDistance < MinDistance")
	}
}

// TestRectBoundsMatchMathMinMax checks NewRect, Union, Intersection,
// ExtendPoint and MaxDistance, which take bounds with the builtin min and
// max, against the same constructions through math.Min and math.Max, on
// every pair from ±0, ±Inf, subnormals, extremes and ordinary values: the
// results must be bit-for-bit equal. With a NaN operand the builtins give
// NaN, where math.Min(−Inf, NaN) is −Inf and math.Max(+Inf, NaN) is +Inf;
// a rectangle with a NaN operand only has to come out not Valid, as it
// does either way, or as no intersection.
func TestRectBoundsMatchMathMinMax(t *testing.T) {
	sub := math.Float64frombits(1) // the smallest subnormal
	vals := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		sub, -sub, math.Float64frombits(0x000fffffffffffff), 0x1p-1022,
		1, -1.5, 7, 1e300, math.MaxFloat64, -math.MaxFloat64}
	same := func(got, want Rect, operands ...float64) bool {
		for _, v := range operands {
			if math.IsNaN(v) {
				return !got.Valid() && !want.Valid()
			}
		}
		return math.Float64bits(got.MinX) == math.Float64bits(want.MinX) &&
			math.Float64bits(got.MinY) == math.Float64bits(want.MinY) &&
			math.Float64bits(got.MaxX) == math.Float64bits(want.MaxX) &&
			math.Float64bits(got.MaxY) == math.Float64bits(want.MaxY)
	}
	for _, a := range vals {
		for _, b := range vals {
			r, o := Rect{a, b, b, a}, Rect{b, a, a, b}
			if got, want := NewRect(a, b, b, a), (Rect{math.Min(a, b), math.Min(b, a), math.Max(a, b), math.Max(b, a)}); !same(got, want, a, b) {
				t.Errorf("NewRect(%g, %g, %g, %g) = %v, want %v", a, b, b, a, got, want)
			}
			if got, want := r.Union(o), (Rect{math.Min(a, b), math.Min(b, a), math.Max(b, a), math.Max(a, b)}); !same(got, want, a, b) {
				t.Errorf("%v.Union(%v) = %v, want %v", r, o, got, want)
			}
			if got, want := r.ExtendPoint(Pt(b, a)), (Rect{math.Min(a, b), math.Min(b, a), math.Max(b, b), math.Max(a, a)}); !same(got, want, a, b) {
				t.Errorf("%v.ExtendPoint(%g, %g) = %v, want %v", r, b, a, got, want)
			}
			got, ok := r.Intersection(o)
			want := Rect{math.Max(a, b), math.Max(b, a), math.Min(b, a), math.Min(a, b)}
			if ok != r.Intersects(o) || ok && !same(got, want, a, b) {
				t.Errorf("%v.Intersection(%v) = %v, %t, want %v, %t", r, o, got, ok, want, r.Intersects(o))
			}
			dx, dy := math.Max(o.MaxX-r.MinX, r.MaxX-o.MinX), math.Max(o.MaxY-r.MinY, r.MaxY-o.MinY)
			if got, want := r.MaxDistance(o), math.Hypot(dx, dy); !math.IsNaN(a) && !math.IsNaN(b) &&
				math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%v.MaxDistance(%v) = %g, want %g", r, o, got, want)
			}
		}
	}
}
