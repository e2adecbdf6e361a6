package pred

import (
	"math/rand"
	"testing"

	"spatialjoin/internal/geom"
)

// TestRectOperandAllocatesNothing evaluates every Table 1 operator on a
// point, a segment and a polygon against a rectangle, by value and by
// pointer, in both operand orders. Each pair passes the MBR pre-test, so
// the exact path runs and reads the rectangle's corners; it must not
// allocate them.
func TestRectOperandAllocatesNothing(t *testing.T) {
	rect := geom.NewRect(0, 0, 10, 10)
	var byValue, byPointer geom.Spatial = rect, &rect
	others := map[string]geom.Spatial{
		"point":   geom.Pt(5, 5),
		"segment": geom.Segment{A: geom.Pt(2, 2), B: geom.Pt(12, 8)},
		"polygon": geom.RegularPolygon(geom.Pt(9, 9), 3, 5),
	}
	for _, op := range Table1() {
		for name, o := range others {
			for _, r := range []geom.Spatial{byValue, byPointer} {
				if n := testing.AllocsPerRun(100, func() {
					op.Eval(o, r)
					op.Eval(r, o)
				}); n != 0 {
					t.Errorf("%s: %s against %T: %.1f allocations, want 0", op.Name(), name, r, n)
				}
			}
		}
	}
}

// TestRectOperandAgreesWithItsPolygon sweeps random points, segments and
// polygons against random rectangles under every Table 1 operator: a
// rectangle operand, by value or by pointer, must give the answer of its
// own polygon, the operand the exact path used to build for it.
func TestRectOperandAgreesWithItsPolygon(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	world := geom.NewRect(0, 0, 60, 60)
	pt := func() geom.Point { return geom.Pt(rng.Float64()*60, rng.Float64()*60) }
	for i := 0; i < 2000; i++ {
		rect := randRectIn(rng, world)
		poly := rect.ToPolygon()
		var other geom.Spatial
		switch i % 3 {
		case 0:
			other = pt()
		case 1:
			other = geom.Segment{A: pt(), B: pt()}
		default:
			other = polyIn(rng, randRectIn(rng, world).Expand(5))
		}
		for _, op := range Table1() {
			wantAB, wantBA := op.Eval(other, poly), op.Eval(poly, other)
			for _, r := range []geom.Spatial{rect, &rect} {
				if got := op.Eval(other, r); got != wantAB {
					t.Fatalf("%s: Eval(%v, %T %v) = %t, %t on its polygon", op.Name(), other, r, rect, got, wantAB)
				}
				if got := op.Eval(r, other); got != wantBA {
					t.Fatalf("%s: Eval(%T %v, %v) = %t, %t on its polygon", op.Name(), r, rect, other, got, wantBA)
				}
			}
		}
	}
}
