package pred

import (
	"math"
	"testing"

	"spatialjoin/internal/geom"
)

func TestWithinDistanceEval(t *testing.T) {
	op := WithinDistance{D: 5}
	a := geom.NewRect(0, 0, 2, 2) // center (1,1)
	b := geom.NewRect(4, 4, 6, 6) // center (5,5): distance √32 ≈ 5.66
	c := geom.NewRect(3, 1, 5, 1) // center (4,1): distance 3
	if op.Eval(a, b) {
		t.Error("centers 5.66 apart should not match d=5")
	}
	if !op.Eval(a, c) {
		t.Error("centers 3 apart should match d=5")
	}
}

func TestWithinDistanceFilterUsesClosestPoints(t *testing.T) {
	op := WithinDistance{D: 5}
	// MBRs whose closest points are 1 apart but centers are ~10 apart: the
	// filter must pass (subobjects near the facing edges could match).
	a := geom.NewRect(0, 0, 4, 4)
	b := geom.NewRect(5, 0, 15, 4)
	if !op.Filter(a, b) {
		t.Error("filter must use closest-point distance")
	}
	far := geom.NewRect(20, 0, 21, 1)
	if op.Filter(a, far) {
		t.Error("gap of 16 must fail filter with d=5")
	}
}

func TestOverlapsEvalRects(t *testing.T) {
	op := Overlaps{}
	if !op.Eval(geom.NewRect(0, 0, 2, 2), geom.NewRect(1, 1, 3, 3)) {
		t.Error("overlapping rects must match")
	}
	if op.Eval(geom.NewRect(0, 0, 1, 1), geom.NewRect(2, 2, 3, 3)) {
		t.Error("disjoint rects must not match")
	}
}

func TestOverlapsEvalPolygons(t *testing.T) {
	op := Overlaps{}
	// Two diamonds whose MBRs overlap but whose geometries do not: Eval
	// must be exact (false) while Filter passes (conservative).
	d1 := geom.RegularPolygon(geom.Pt(0, 0), 1, 4)
	d2 := geom.RegularPolygon(geom.Pt(1.9, 1.9), 1, 4)
	if op.Eval(d1, d2) {
		t.Error("disjoint diamonds must not overlap exactly")
	}
	if !op.Filter(d1.Bounds(), d2.Bounds()) {
		t.Error("their MBRs do overlap, so the filter must pass")
	}
}

func TestIncludesEvalAndFigure4(t *testing.T) {
	op := Includes{}
	outer := geom.NewRect(0, 0, 10, 10)
	inner := geom.NewRect(2, 2, 4, 4)
	if !op.Eval(outer, inner) {
		t.Error("outer includes inner")
	}
	if op.Eval(inner, outer) {
		t.Error("inner does not include outer")
	}
	// Figure 4: ancestors o₁′ and o₂′ merely overlap while subobjects
	// satisfy o₁ includes o₂ — so Θ(includes) must be plain overlap.
	o1p := geom.NewRect(0, 0, 6, 6)
	o2p := geom.NewRect(4, 4, 12, 12)
	o1 := geom.NewRect(4, 4, 6, 6)         // ⊆ o₁′
	o2 := geom.NewRect(4.5, 4.5, 5.5, 5.5) // ⊆ o₂′ and ⊆ o₁
	if !op.Eval(o1, o2) {
		t.Fatal("setup: o1 must include o2")
	}
	if !op.Filter(o1p, o2p) {
		t.Fatal("Θ(includes) rejected the Figure 4 configuration")
	}
}

func TestContainedInIsConverseOfIncludes(t *testing.T) {
	in, inc := ContainedIn{}, Includes{}
	a := geom.NewRect(1, 1, 2, 2)
	b := geom.NewRect(0, 0, 3, 3)
	if !in.Eval(a, b) || in.Eval(b, a) {
		t.Error("ContainedIn direction wrong")
	}
	if in.Eval(a, b) != inc.Eval(b, a) {
		t.Error("ContainedIn must be the converse of Includes")
	}
}

func TestNorthwestOfEvalAndFigure5(t *testing.T) {
	op := NorthwestOf{}
	a := geom.NewRect(0, 8, 2, 10) // center (1,9)
	b := geom.NewRect(5, 0, 7, 2)  // center (6,1)
	if !op.Eval(a, b) {
		t.Error("a is northwest of b")
	}
	if op.Eval(b, a) {
		t.Error("NW is not symmetric")
	}
	// Figure 5: the filter admits any o₁′ that pokes into the quadrant left
	// of b's right tangent and above b's lower tangent.
	edgeCase := geom.NewRect(6, 1.5, 20, 30) // overlaps quadrant though center is NE
	if !op.Filter(edgeCase, b.Bounds()) {
		t.Error("MBR overlapping the NW quadrant must pass the filter")
	}
	se := geom.NewRect(8, -5, 9, -4)
	if op.Filter(se, b.Bounds()) {
		t.Error("strictly-SE MBR must fail the filter")
	}
}

func TestReachableWithinEvalUsesBuffer(t *testing.T) {
	op := ReachableWithin{Minutes: 10, Speed: 2} // radius 20
	a := geom.NewRect(0, 0, 1, 1)
	b := geom.NewRect(15, 0, 16, 1) // gap 14 ≤ 20
	c := geom.NewRect(30, 0, 31, 1) // gap 29 > 20
	if !op.Eval(a, b) {
		t.Error("object inside the travel buffer must match")
	}
	if op.Eval(a, c) {
		t.Error("object beyond the travel buffer must not match")
	}
	if op.Radius() != 20 {
		t.Errorf("radius = %g", op.Radius())
	}
}

func TestReachableFilterMatchesBufferedOverlap(t *testing.T) {
	op := ReachableWithin{Minutes: 5, Speed: 1}
	a := geom.NewRect(0, 0, 1, 1)
	b := geom.NewRect(4, 0, 5, 1) // gap 3 < 5
	if !op.Filter(a.Bounds(), b.Bounds()) {
		t.Error("buffered MBRs overlap; filter must pass")
	}
	far := geom.NewRect(10, 0, 11, 1) // gap 9 > 5
	if op.Filter(a.Bounds(), far.Bounds()) {
		t.Error("filter must reject beyond the buffer")
	}
}

func TestOperatorNames(t *testing.T) {
	want := map[string]bool{
		"within_distance(10)":       true,
		"overlaps":                  true,
		"includes":                  true,
		"contained_in":              true,
		"northwest_of":              true,
		"reachable_within(10min@1)": true,
	}
	ops := Table1()
	if len(ops) != 6 {
		t.Fatalf("Table1 has %d operators, want 6", len(ops))
	}
	for _, op := range ops {
		if !want[op.Name()] {
			t.Errorf("unexpected operator name %q", op.Name())
		}
	}
}

func TestEvalImpliesFilterOnOwnMBRs(t *testing.T) {
	// θ(a,b) ⇒ Θ(mbr(a), mbr(b)): each object is its own subobject.
	objs := []geom.Spatial{
		geom.NewRect(0, 0, 2, 2),
		geom.NewRect(1, 1, 3, 3),
		geom.NewRect(10, 10, 12, 12),
		geom.Pt(1.5, 1.5),
		geom.RegularPolygon(geom.Pt(2, 2), 1.5, 6),
		geom.Segment{A: geom.Pt(0, 0), B: geom.Pt(4, 4)},
	}
	for _, op := range Table1() {
		for _, a := range objs {
			for _, b := range objs {
				if op.Eval(a, b) && !op.Filter(a.Bounds(), b.Bounds()) {
					t.Errorf("%s: Eval true but Filter false for %v, %v",
						op.Name(), a.Bounds(), b.Bounds())
				}
			}
		}
	}
}

func TestExactIntersectsMixedTypes(t *testing.T) {
	poly := geom.RegularPolygon(geom.Pt(0, 0), 2, 8)
	if !exactIntersects(geom.Pt(0, 0), poly) {
		t.Error("center point intersects polygon")
	}
	if exactIntersects(geom.Pt(5, 5), poly) {
		t.Error("far point does not intersect polygon")
	}
	seg := geom.Segment{A: geom.Pt(-5, 0), B: geom.Pt(5, 0)}
	if !exactIntersects(seg, poly) {
		t.Error("crossing segment intersects polygon")
	}
	out := geom.Segment{A: geom.Pt(-5, 5), B: geom.Pt(5, 5)}
	if exactIntersects(out, poly) {
		t.Error("segment above polygon does not intersect")
	}
	if !exactIntersects(geom.Pt(1, 1), geom.Pt(1, 1)) {
		t.Error("identical points intersect")
	}
	if exactIntersects(geom.Pt(1, 1), geom.Pt(1, 1.5)) {
		t.Error("distinct points do not intersect")
	}
}

func TestExactContainsMixedTypes(t *testing.T) {
	poly := geom.NewRect(0, 0, 10, 10).ToPolygon()
	if !exactContains(poly, geom.Pt(5, 5)) {
		t.Error("polygon contains interior point")
	}
	if exactContains(poly, geom.Pt(11, 5)) {
		t.Error("polygon does not contain outside point")
	}
	seg := geom.Segment{A: geom.Pt(1, 1), B: geom.Pt(9, 9)}
	if !exactContains(poly, seg) {
		t.Error("polygon contains inner segment")
	}
	crossing := geom.Segment{A: geom.Pt(5, 5), B: geom.Pt(15, 5)}
	if exactContains(poly, crossing) {
		t.Error("polygon does not contain escaping segment")
	}
	if exactContains(geom.Pt(1, 1), poly) {
		t.Error("a point cannot contain a polygon")
	}
	if !exactContains(seg, geom.Pt(5, 5)) {
		t.Error("segment contains its midpoint")
	}
	sub := geom.Segment{A: geom.Pt(2, 2), B: geom.Pt(4, 4)}
	if !exactContains(seg, sub) {
		t.Error("segment contains collinear subsegment")
	}
	if exactContains(seg, poly) {
		t.Error("a segment cannot contain a polygon")
	}
}

func TestExactMinDistanceMixedTypes(t *testing.T) {
	a := geom.NewRect(0, 0, 1, 1)
	b := geom.NewRect(4, 0, 5, 1)
	if d := exactMinDistance(a, b); math.Abs(d-3) > 1e-9 {
		t.Errorf("rect distance = %g, want 3", d)
	}
	if d := exactMinDistance(geom.Pt(0, 0), geom.Pt(3, 4)); math.Abs(d-5) > 1e-9 {
		t.Errorf("point distance = %g, want 5", d)
	}
	poly := geom.NewRect(0, 0, 2, 2).ToPolygon()
	if d := exactMinDistance(geom.Pt(5, 1), poly); math.Abs(d-3) > 1e-9 {
		t.Errorf("point-polygon distance = %g, want 3", d)
	}
	if d := exactMinDistance(poly, poly); d != 0 {
		t.Errorf("self distance = %g", d)
	}
	seg := geom.Segment{A: geom.Pt(5, 0), B: geom.Pt(5, 2)}
	if d := exactMinDistance(seg, poly); math.Abs(d-3) > 1e-9 {
		t.Errorf("segment-polygon distance = %g, want 3", d)
	}
}

func TestCanonicalFallbackUsesMBR(t *testing.T) {
	// An unknown Spatial type degrades to its MBR polygon.
	u := unknownShape{r: geom.NewRect(0, 0, 2, 2)}
	if !exactIntersects(u, geom.Pt(1, 1)) {
		t.Error("fallback MBR should contain its center")
	}
	if exactIntersects(u, geom.Pt(9, 9)) {
		t.Error("fallback MBR should not contain far point")
	}
}

type unknownShape struct{ r geom.Rect }

func (u unknownShape) Bounds() geom.Rect { return u.r }

func TestDistanceBandEval(t *testing.T) {
	op := DistanceBand{Lo: 5, Hi: 10}
	a := geom.NewRect(0, 0, 2, 2) // center (1,1)
	cases := []struct {
		b    geom.Rect
		want bool
	}{
		{geom.NewRect(7, 0, 9, 2), true},    // center (8,1): distance 7 ∈ [5,10]
		{geom.NewRect(3, 0, 5, 2), false},   // distance 3 < 5
		{geom.NewRect(14, 0, 16, 2), false}, // distance 14 > 10
		{geom.NewRect(5, 0, 7, 2), true},    // distance 5, inclusive lower bound
		{geom.NewRect(10, 0, 12, 2), true},  // distance 10, inclusive upper bound
	}
	for i, c := range cases {
		if got := op.Eval(a, c.b); got != c.want {
			t.Errorf("case %d: Eval = %t, want %t", i, got, c.want)
		}
	}
	if op.Name() != "distance_band(5,10)" {
		t.Errorf("name = %q", op.Name())
	}
}

func TestDistanceBandFilterTwoSided(t *testing.T) {
	op := DistanceBand{Lo: 50, Hi: 60}
	a := geom.NewRect(0, 0, 4, 4)
	// Closest points far beyond Hi: reject.
	if op.Filter(a, geom.NewRect(100, 0, 104, 4)) {
		t.Error("beyond Hi must fail")
	}
	// Even the farthest corners are below Lo: reject (the two-sided part).
	if op.Filter(a, geom.NewRect(5, 0, 9, 4)) {
		t.Error("entirely below Lo must fail")
	}
	// Bracket straddles the band: accept.
	if !op.Filter(a, geom.NewRect(52, 0, 56, 4)) {
		t.Error("band-straddling pair must pass")
	}
}

// TestRectPairAgreesWithPolygonPath pins the Rect×Rect shortcut of the
// exact predicates to the general path: every registered operator must give
// the same verdict on a pair of rectangles as on the same two rectangles
// handed over as four-vertex polygons, which still run the edge and
// containment tests — by value and by pointer, the form a rectangle read
// into a reader's scratch takes.
func TestRectPairAgreesWithPolygonPath(t *testing.T) {
	cases := []struct {
		name string
		a, b geom.Rect
	}{
		{"overlapping", geom.NewRect(0, 0, 4, 4), geom.NewRect(2, 2, 6, 6)},
		{"touching edge", geom.NewRect(0, 0, 4, 4), geom.NewRect(4, 1, 8, 3)},
		{"touching corner", geom.NewRect(0, 0, 4, 4), geom.NewRect(4, 4, 8, 8)},
		{"nested", geom.NewRect(0, 0, 10, 10), geom.NewRect(3, 3, 5, 5)},
		{"nested sharing an edge", geom.NewRect(0, 0, 10, 10), geom.NewRect(0, 3, 5, 5)},
		{"nested sharing a corner", geom.NewRect(0, 0, 10, 10), geom.NewRect(6, 6, 10, 10)},
		{"identical", geom.NewRect(1, 1, 3, 3), geom.NewRect(1, 1, 3, 3)},
		{"crossing", geom.NewRect(0, 4, 10, 6), geom.NewRect(4, 0, 6, 10)},
		{"disjoint near", geom.NewRect(0, 0, 4, 4), geom.NewRect(5, 0, 9, 4)},
		{"disjoint far", geom.NewRect(0, 0, 1, 1), geom.NewRect(50, 60, 51, 61)},
		{"disjoint diagonal", geom.NewRect(0, 0, 2, 2), geom.NewRect(12, 30, 14, 32)},
		{"line inside", geom.NewRect(0, 0, 10, 10), geom.NewRect(2, 5, 8, 5)},
		{"line on edge", geom.NewRect(0, 0, 10, 10), geom.NewRect(0, 2, 0, 8)},
		{"line crossing out", geom.NewRect(0, 0, 10, 10), geom.NewRect(5, 5, 15, 5)},
		{"line outside", geom.NewRect(0, 0, 10, 10), geom.NewRect(12, 0, 12, 10)},
		{"point inside", geom.NewRect(0, 0, 10, 10), geom.NewRect(5, 5, 5, 5)},
		{"point on corner", geom.NewRect(0, 0, 10, 10), geom.NewRect(10, 10, 10, 10)},
		{"point outside", geom.NewRect(0, 0, 10, 10), geom.NewRect(11, 5, 11, 5)},
		{"collinear lines overlapping", geom.NewRect(0, 3, 6, 3), geom.NewRect(4, 3, 9, 3)},
		{"collinear lines nested", geom.NewRect(0, 3, 9, 3), geom.NewRect(4, 3, 6, 3)},
		{"perpendicular lines crossing", geom.NewRect(0, 3, 6, 3), geom.NewRect(3, 0, 3, 6)},
		{"same point", geom.NewRect(7, 7, 7, 7), geom.NewRect(7, 7, 7, 7)},
	}
	for _, op := range Extended() {
		for _, c := range cases {
			for _, pair := range [][2]geom.Rect{{c.a, c.b}, {c.b, c.a}} {
				a, b := pair[0], pair[1]
				want := op.Eval(a.ToPolygon(), b.ToPolygon())
				for _, operands := range [][2]geom.Spatial{{a, b}, {&a, &b}, {&a, b}, {a, &b}} {
					if got := op.Eval(operands[0], operands[1]); got != want {
						t.Errorf("%s, %s: Eval(%T %v, %T %v) = %t on rectangles, %t on their polygons",
							op.Name(), c.name, operands[0], a, operands[1], b, got, want)
					}
				}
			}
		}
	}
}
