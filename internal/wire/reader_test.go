package wire

import (
	"bytes"
	"io"
	"testing"

	"spatialjoin/internal/core"
	"spatialjoin/internal/geom"
)

// sameFrame reports whether two decoded frames carry the same header
// fields, trace context and payload bytes.
func sameFrame(a, b Frame) bool {
	return a.Type == b.Type && a.Flags == b.Flags && a.Request == b.Request &&
		a.Trace == b.Trace && bytes.Equal(a.Payload, b.Payload)
}

// TestAppendMessageMatchesEncoders pins the in-place encoding the client
// and the sessions write from their reused buffers: for every frame fixture
// and one message of every query type, with and without the trace-context
// extension, AppendMessage appends exactly the bytes AppendFrame does for
// the same header carrying the message encoder's payload, behind whatever
// the buffer already holds.
func TestAppendMessageMatchesEncoders(t *testing.T) {
	sel := SelectRequest{Strategy: StrategyTree, Op: OpSpec{Code: OpWithinDistance, P1: 2.5},
		Collection: "lakes", Selector: geom.NewRect(1, 2, 3, 4)}
	join := JoinRequest{Strategy: StrategyIndex, Op: OpSpec{Code: OpDistanceBand, P1: 1, P2: 9}, R: "r", S: "s"}
	ids := []int{0, 7, -3, 1 << 40}
	ms := []core.Match{{R: 1, S: 2}, {R: 3, S: -4}}
	done := Done{Status: StatusDegraded, Results: 6, Stats: QueryStats{FilterEvals: 9, PageReads: 2},
		Message: "m", Spans: sampleRemoteSpans()}
	type message struct {
		f       Frame
		msg     any
		payload []byte
	}
	var cases []message
	for _, f := range frameFixtures() {
		cases = append(cases, message{f, f.Payload, f.Payload})
	}
	selP, _ := EncodeSelect(sel)
	joinP, _ := EncodeJoin(join)
	cases = append(cases,
		message{Frame{Type: TypePing, Request: 4}, nil, nil},
		message{Frame{Type: TypeSelect, Request: 5}, sel, selP},
		message{Frame{Type: TypeJoin, Request: 6}, join, joinP},
		message{Frame{Type: TypeIDs, Request: 7}, ids, EncodeIDs(ids)},
		message{Frame{Type: TypeIDs, Request: 7}, []int(nil), EncodeIDs(nil)},
		message{Frame{Type: TypeMatches, Request: 8}, ms, EncodeMatches(ms)},
		message{Frame{Type: TypeDone, Request: 9}, done, EncodeDone(done)},
		message{Frame{Type: TypeDone, Flags: FlagShed, Request: 9}, Done{Status: StatusServerBusy}, EncodeDone(Done{Status: StatusServerBusy})},
	)
	reused := []byte("previous frame")
	for i, c := range cases {
		for _, traced := range []bool{false, true} {
			f := c.f
			if traced {
				f.Flags |= FlagTraceContext
				f.Trace = TraceContext{ID: 0x0123456789ABCDEF, Flags: TraceFlagSampled}
			}
			want := f
			want.Payload = c.payload
			f.Payload = []byte("ignored")
			got := AppendMessage(reused[:0], f, c.msg)
			if !bytes.Equal(got, AppendFrame(nil, want)) {
				t.Fatalf("case %d (type %#02x, traced %v): in-place encoding differs from AppendFrame", i, f.Type, traced)
			}
			reused = got
		}
	}
}

// TestReaderPayloadIsValidUntilTheNextRead documents the Reader's
// ownership rule: it decodes what ReadFrame decodes, and the payload it
// returns lives in its buffer, which the next read overwrites.
func TestReaderPayloadIsValidUntilTheNextRead(t *testing.T) {
	var stream []byte
	for _, f := range frameFixtures() {
		stream = AppendFrame(stream, f)
	}
	first := AppendFrame(nil, Frame{Type: TypeIDs, Request: 1, Payload: EncodeIDs([]int{1, 2, 3})})
	second := AppendFrame(nil, Frame{Type: TypeIDs, Request: 2, Payload: EncodeIDs([]int{4, 5, 6})})
	stream = append(append(stream, first...), second...)

	rd := NewReader(bytes.NewReader(stream), MaxPayload)
	for i, want := range frameFixtures() {
		got, err := rd.ReadFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !sameFrame(got, want) {
			t.Fatalf("frame %d: reader decoded %+v, want %+v", i, got, want)
		}
	}
	a, err := rd.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	kept := bytes.Clone(a.Payload)
	b, err := rd.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if &a.Payload[0] != &b.Payload[0] {
		t.Fatal("reader did not reuse its payload buffer for an equal-sized frame")
	}
	if bytes.Equal(a.Payload, kept) {
		t.Fatal("a payload survived the next read; the reader is not reusing its buffer")
	}
	if ids, err := DecodeIDs(nil, kept); err != nil || len(ids) != 3 || ids[0] != 1 {
		t.Fatalf("copied payload decodes to %v, %v", ids, err)
	}
	if _, err := rd.ReadFrame(); err != io.EOF {
		t.Fatalf("clean end of stream: got %v", err)
	}
}
