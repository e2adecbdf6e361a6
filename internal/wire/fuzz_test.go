package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"spatialjoin/internal/core"
	"spatialjoin/internal/geom"
)

// frameDecodeTypedErrors are the only failure shapes ReadFrame may produce
// (besides a clean io.EOF at a frame boundary).
var frameDecodeTypedErrors = []error{
	ErrBadMagic, ErrVersion, ErrBadFlags, ErrUnknownType,
	ErrFrameTooLarge, ErrChecksum, ErrTruncated, ErrBadTrace,
}

// FuzzFrameDecode feeds arbitrary bytes into the frame decoder and asserts
// the contract the server's read loop depends on: no panic, no hang, no
// allocation beyond the declared bound, and every failure is one of the
// package's typed errors. Frames that do decode must re-encode to the
// byte-identical canonical form (the codec is bijective on valid frames),
// and a Reader decoding the same bytes must yield the same frames and fail
// with the same typed error.
func FuzzFrameDecode(f *testing.F) {
	// Seed with valid frames of every type...
	for _, fr := range frameFixtures() {
		f.Add(AppendFrame(nil, fr))
	}
	sel, _ := EncodeSelect(SelectRequest{
		Strategy: StrategyTree, Op: Overlaps(),
		Collection: "r", Selector: geom.NewRect(0, 0, 1, 1),
	})
	f.Add(AppendFrame(nil, Frame{Type: TypeSelect, Request: 3, Payload: sel}))
	// ...a stream of two frames...
	two := AppendFrame(nil, Frame{Type: TypePing, Request: 1})
	f.Add(AppendFrame(two, Frame{Type: TypePong, Request: 1}))
	// ...and hostile shapes: truncations, a huge declared length, garbage.
	valid := AppendFrame(nil, Frame{Type: TypeJoin, Request: 2, Payload: []byte("xyz")})
	f.Add(valid[:HeaderSize-1])
	f.Add(valid[:len(valid)-1])
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(huge[16:], 1<<31)
	f.Add(huge)
	f.Add([]byte("GET / HTTP/1.1\r\n\r\n"))
	f.Add(bytes.Repeat([]byte{0xFF}, HeaderSize*2))
	// Trace-context extension seeds: a traced request, a traced DONE
	// carrying a span summary, and hostile shapes around the extension
	// (version 2 without the flag; payload shorter than the extension;
	// undefined trace-flag and reserved bits).
	traced := AppendFrame(nil, Frame{
		Type: TypeSelect, Flags: FlagTraceContext, Request: 11,
		Trace: TraceContext{ID: 0xDEADBEEFCAFEF00D, Flags: TraceFlagSampled}, Payload: sel,
	})
	f.Add(traced)
	f.Add(AppendFrame(nil, Frame{
		Type: TypeDone, Request: 11,
		Payload: EncodeDone(Done{Status: StatusOK, Results: 0, Spans: sampleRemoteSpans()}),
	}))
	v2noflag := append([]byte(nil), traced...)
	v2noflag[6], v2noflag[7] = 0, 0
	refreshCRC(v2noflag)
	f.Add(v2noflag)
	shortExt := AppendFrame(nil, Frame{Type: TypePing, Request: 1})
	shortExt[4] = VersionTrace
	binary.LittleEndian.PutUint16(shortExt[6:], FlagTraceContext)
	refreshCRC(shortExt)
	f.Add(shortExt)
	badTFlags := append([]byte(nil), traced...)
	badTFlags[HeaderSize+8] = 0xFF
	refreshCRC(badTFlags)
	f.Add(badTFlags)
	badRsv := append([]byte(nil), traced...)
	badRsv[HeaderSize+10] = 0x01
	refreshCRC(badRsv)
	f.Add(badRsv)

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		// The reusing reader decodes the same input alongside the one-shot
		// decoder and must agree with it frame by frame and failure by
		// failure.
		rd := NewReader(bytes.NewReader(data), MaxPayload)
		for {
			fr, err := ReadFrame(r, MaxPayload)
			got, rerr := rd.ReadFrame()
			if (err == nil) != (rerr == nil) || (err == nil && !sameFrame(got, fr)) {
				t.Fatalf("reader decoded (%+v, %v), ReadFrame (%+v, %v)", got, rerr, fr, err)
			}
			if err != nil && (err == io.EOF) != (rerr == io.EOF) {
				t.Fatalf("reader failed with %v, ReadFrame with %v", rerr, err)
			}
			for _, want := range frameDecodeTypedErrors {
				if errors.Is(err, want) != errors.Is(rerr, want) {
					t.Fatalf("reader failed with %v, ReadFrame with %v", rerr, err)
				}
			}
			if err != nil {
				if err == io.EOF {
					return // clean boundary
				}
				typed := false
				for _, want := range frameDecodeTypedErrors {
					if errors.Is(err, want) {
						typed = true
						break
					}
				}
				if !typed {
					t.Fatalf("untyped decode error: %v", err)
				}
				return
			}
			if len(fr.Payload) > MaxPayload {
				t.Fatalf("decoder admitted %d-byte payload", len(fr.Payload))
			}
			// Bijectivity: a decoded frame re-encodes byte-identically to
			// the consumed input prefix.
			reenc := AppendFrame(nil, fr)
			consumed := len(data) - r.Len()
			start := consumed - len(reenc)
			if start < 0 || !bytes.Equal(reenc, data[start:consumed]) {
				t.Fatalf("re-encoding diverged from consumed bytes")
			}
			// The payload decoders must also never panic on whatever the
			// frame carried, and must fail typed when they fail.
			checkPayloadDecoders(t, fr)
		}
	})
}

// checkPayloadDecoders runs every message decoder that could be dispatched
// for the frame's type and asserts failures are ErrBadPayload-typed.
func checkPayloadDecoders(t *testing.T, fr Frame) {
	t.Helper()
	assertTyped := func(err error) {
		if err != nil && !errors.Is(err, ErrBadPayload) {
			t.Fatalf("untyped payload error for frame type %#02x: %v", fr.Type, err)
		}
	}
	switch fr.Type {
	case TypeSelect:
		_, err := DecodeSelect(fr.Payload)
		assertTyped(err)
	case TypeJoin:
		_, err := DecodeJoin(fr.Payload)
		assertTyped(err)
	case TypeMatches:
		_, err := DecodeMatches([]core.Match(nil), fr.Payload)
		assertTyped(err)
	case TypeIDs:
		_, err := DecodeIDs(nil, fr.Payload)
		assertTyped(err)
	case TypeDone:
		_, err := DecodeDone(fr.Payload)
		assertTyped(err)
	case TypeReplTail:
		_, err := DecodeReplTail(fr.Payload)
		assertTyped(err)
	case TypeSnapDelta:
		_, err := DecodeSnapDelta(fr.Payload)
		assertTyped(err)
	case TypeWALChunk:
		_, err := DecodeWALChunk(fr.Payload)
		assertTyped(err)
	case TypeSnapChunk:
		_, err := DecodeSnapChunk(fr.Payload)
		assertTyped(err)
	}
}
