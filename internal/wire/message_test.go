package wire

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"spatialjoin/internal/core"
	"spatialjoin/internal/geom"
)

func TestSelectRequestRoundTrip(t *testing.T) {
	want := SelectRequest{
		Strategy:   StrategyTree,
		Op:         OpSpec{Code: OpWithinDistance, P1: 12.5},
		Collection: "lakes",
		Selector:   geom.NewRect(1, 2, 3, 4),
	}
	p, err := EncodeSelect(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSelect(p)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip: %+v vs %+v", got, want)
	}
}

func TestJoinRequestRoundTrip(t *testing.T) {
	want := JoinRequest{
		Strategy: StrategyIndex,
		Op:       OpSpec{Code: OpDistanceBand, P1: 50, P2: 100},
		R:        "houses",
		S:        "lakes",
	}
	p, err := EncodeJoin(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJoin(p)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("round trip: %+v vs %+v", got, want)
	}
}

// TestNamesInternDecodedNames decodes requests through one Names: each
// decodes as DecodeSelect and DecodeJoin decode it, a name seen before
// costs no allocation, and no decoded name aliases the payload, which a
// frame reader overwrites on its next read. Past maxNames distinct names
// the decode still returns each name, copied.
func TestNamesInternDecodedNames(t *testing.T) {
	var names Names
	for i := 0; i < maxNames+8; i++ {
		sq := SelectRequest{Strategy: StrategyTree, Collection: fmt.Sprintf("c%02d", i), Selector: geom.NewRect(0, 0, 1, 1)}
		jq := JoinRequest{Strategy: StrategyTree, R: fmt.Sprintf("r%02d", i), S: "houses"}
		sp, err := EncodeSelect(sq)
		if err != nil {
			t.Fatal(err)
		}
		jp, err := EncodeJoin(jq)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			gotS, err := names.DecodeSelect(sp)
			if err != nil || gotS != sq {
				t.Fatalf("select %d: %+v, %v; want %+v", i, gotS, err, sq)
			}
			gotJ, err := names.DecodeJoin(jp)
			if err != nil || gotJ != jq {
				t.Fatalf("join %d: %+v, %v; want %+v", i, gotJ, err, jq)
			}
		}
		kept, _ := names.DecodeSelect(sp)
		copy(sp[len(sp)-4*8-3:], "zzz")
		if got, _ := names.DecodeSelect(sp); got.Collection != "zzz" || kept.Collection != sq.Collection {
			t.Fatalf("select %d after the payload changed: decoded %q, earlier decode now %q",
				i, got.Collection, kept.Collection)
		}
	}
	first, err := EncodeSelect(SelectRequest{Collection: "c00"})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = names.DecodeSelect(first) }); allocs != 0 {
		t.Errorf("decoding a kept name: %.1f allocations, want 0", allocs)
	}
}

// TestStatusLabelIsLowercaseString checks every status code's label against
// the lowercased String it was computed from before labels were a table, so
// /metrics output keeps its bytes.
func TestStatusLabelIsLowercaseString(t *testing.T) {
	for c := 0; c <= 255; c++ {
		s := Status(c)
		if got, want := s.Label(), strings.ToLower(s.String()); got != want {
			t.Errorf("Status(%d).Label() = %q, want %q", c, got, want)
		}
	}
}

func TestBatchRoundTrips(t *testing.T) {
	ms := []core.Match{{R: 0, S: 3}, {R: 7, S: 7}, {R: 120, S: 4}}
	gotM, err := DecodeMatches(nil, EncodeMatches(ms))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotM, ms) {
		t.Fatalf("matches: %v vs %v", gotM, ms)
	}
	if got, err := DecodeMatches(nil, EncodeMatches(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty matches: %v, %v", got, err)
	}

	ids := []int{0, 5, 9, 1 << 40}
	gotIDs, err := DecodeIDs(nil, EncodeIDs(ids))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotIDs, ids) {
		t.Fatalf("ids: %v vs %v", gotIDs, ids)
	}
}

func TestDoneRoundTrip(t *testing.T) {
	want := Done{
		Status:  StatusDegraded,
		Results: 42,
		Stats: QueryStats{
			FilterEvals: 1, ExactEvals: 2, PageReads: 3, IndexReads: 4, Downgrades: 1,
		},
		Message: "index page lost",
	}
	got, err := DecodeDone(EncodeDone(want))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: %+v vs %+v", got, want)
	}
}

func TestMessageDecodeErrorsAreTyped(t *testing.T) {
	sel, err := EncodeSelect(SelectRequest{Collection: "c", Op: Overlaps()})
	if err != nil {
		t.Fatal(err)
	}
	jn, err := EncodeJoin(JoinRequest{R: "r", S: "s", Op: Overlaps()})
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]byte{
		nil,
		{1},
		sel[:len(sel)-1],
		append(append([]byte{}, sel...), 0), // trailing byte
		jn[:3],
	}
	for i, p := range bad {
		if _, err := DecodeSelect(p); !errors.Is(err, ErrBadPayload) {
			t.Errorf("select case %d: got %v, want ErrBadPayload", i, err)
		}
		if _, err := DecodeJoin(p); !errors.Is(err, ErrBadPayload) {
			t.Errorf("join case %d: got %v, want ErrBadPayload", i, err)
		}
	}
	done := EncodeDone(Done{Status: StatusOK, Message: "x"})
	for i, p := range [][]byte{nil, {1}, done[:len(done)-1], append(append([]byte{}, done...), 0)} {
		if _, err := DecodeDone(p); !errors.Is(err, ErrBadPayload) {
			t.Errorf("done case %d: got %v, want ErrBadPayload", i, err)
		}
	}
	// A batch whose count disagrees with its byte length is rejected.
	enc := EncodeMatches([]core.Match{{R: 1, S: 2}})
	enc[0] = 200
	if _, err := DecodeMatches(nil, enc); !errors.Is(err, ErrBadPayload) {
		t.Errorf("inflated match count: got %v, want ErrBadPayload", err)
	}
	if _, err := DecodeIDs(nil, enc); !errors.Is(err, ErrBadPayload) {
		t.Errorf("ids with pair-batch shape: got %v, want ErrBadPayload", err)
	}
}

func TestOpSpecOperators(t *testing.T) {
	cases := []struct {
		spec OpSpec
		name string
	}{
		{OpSpec{Code: OpOverlaps}, "overlaps"},
		{OpSpec{Code: OpWithinDistance, P1: 10}, "within_distance(10)"},
		{OpSpec{Code: OpDistanceBand, P1: 50, P2: 100}, "distance_band(50,100)"},
		{OpSpec{Code: OpIncludes}, "includes"},
		{OpSpec{Code: OpContainedIn}, "contained_in"},
		{OpSpec{Code: OpNorthwestOf}, "northwest_of"},
	}
	for _, tc := range cases {
		op, err := tc.spec.Operator()
		if err != nil {
			t.Fatalf("code %d: %v", tc.spec.Code, err)
		}
		if op.Name() != tc.name {
			t.Errorf("code %d: name %q, want %q", tc.spec.Code, op.Name(), tc.name)
		}
	}
	if _, err := (OpSpec{Code: 200}).Operator(); !errors.Is(err, ErrBadPayload) {
		t.Errorf("unknown op code: got %v, want ErrBadPayload", err)
	}
	if _, err := (OpSpec{Code: OpReachableWithin, P1: 5, P2: 2}).Operator(); err != nil {
		t.Errorf("reachable_within: %v", err)
	}
}

func TestNameBounds(t *testing.T) {
	long := string(make([]byte, maxNameLen+1))
	if _, err := EncodeSelect(SelectRequest{Collection: long, Op: Overlaps()}); err == nil {
		t.Error("overlong collection name encoded")
	}
	if _, err := EncodeJoin(JoinRequest{R: "r", S: "", Op: Overlaps()}); err == nil {
		t.Error("empty collection name encoded")
	}
}
