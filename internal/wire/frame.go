package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"spatialjoin/internal/core"
)

// Frame is one protocol frame: the decoded header fields plus the raw
// message payload its Type describes. When Flags carries FlagTraceContext,
// Trace holds the stripped trace-context extension and Payload is the
// message alone — encoders and decoders keep the two separated so message
// codecs never see the extension.
type Frame struct {
	Type    uint8
	Flags   uint16
	Request uint64
	Trace   TraceContext
	Payload []byte
}

// AppendFrame appends the frame's canonical encoding to dst and returns the
// extended slice. A frame whose Flags set FlagTraceContext encodes as
// protocol version VersionTrace with the trace-context extension prefixed
// to the payload; any other frame encodes as version 1, byte-identical to
// what this package has always produced. It panics if payload plus
// extension exceed MaxPayload — callers construct payloads with the bounded
// message encoders, so an oversized frame is a programming error, not an
// input condition.
func AppendFrame(dst []byte, f Frame) []byte {
	return AppendMessage(dst, f, f.Payload)
}

// AppendMessage appends the frame AppendFrame would for f's header with
// msg's encoding as payload, encoding msg in place and patching length and
// CRC after it, so appending into a reused buffer allocates nothing. msg is
// nil, a []byte payload, a SelectRequest or JoinRequest (names already
// checked), an ID batch ([]int), a match batch ([]core.Match) or a Done;
// f.Payload is ignored. Any other msg panics, as an oversized payload does.
func AppendMessage(dst []byte, f Frame, msg any) []byte {
	version := uint8(Version)
	if f.Flags&FlagTraceContext != 0 {
		version = VersionTrace
	}
	off := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, Magic)
	dst = append(dst, version, f.Type)
	dst = binary.LittleEndian.AppendUint16(dst, f.Flags)
	dst = binary.LittleEndian.AppendUint64(dst, f.Request)
	dst = binary.LittleEndian.AppendUint64(dst, 0) // length and CRC, patched below
	if version == VersionTrace {
		dst = binary.LittleEndian.AppendUint64(dst, f.Trace.ID)
		dst = binary.LittleEndian.AppendUint16(dst, f.Trace.Flags)
		dst = append(dst, 0, 0) // reserved
	}
	switch m := msg.(type) {
	case nil:
	case []byte:
		dst = append(dst, m...)
	case SelectRequest:
		dst = appendSelect(dst, m)
	case JoinRequest:
		dst = appendJoin(dst, m)
	case []int:
		dst = appendIDs(dst, m)
	case []core.Match:
		dst = appendMatches(dst, m)
	case Done:
		dst = appendDone(dst, m)
	default:
		panic("wire: AppendMessage of an unsupported message type")
	}
	n := len(dst) - off - HeaderSize
	if n > MaxPayload {
		panic(fmt.Sprintf("wire: frame payload %d exceeds MaxPayload", n))
	}
	binary.LittleEndian.PutUint32(dst[off+16:], uint32(n))
	sum := crc32.Update(0, castagnoli, dst[off:off+20])
	sum = crc32.Update(sum, castagnoli, dst[off+HeaderSize:])
	binary.LittleEndian.PutUint32(dst[off+20:], sum)
	return dst
}

// WriteFrame writes the frame's canonical encoding to w in one Write call,
// so a frame is never interleaved with another writer's frame as long as
// callers serialize Write calls (both peers guard the connection with a
// write mutex).
func WriteFrame(w io.Writer, f Frame) error {
	buf := AppendFrame(make([]byte, 0, HeaderSize+traceExtSize+len(f.Payload)), f)
	_, err := w.Write(buf)
	return err
}

// Reader reads a connection's frames through its own bufio.Reader, reusing
// its header array and payload buffer from frame to frame: a frame's
// Payload is valid only until the next ReadFrame.
type Reader struct {
	r       io.Reader
	max     int
	hdr     [HeaderSize]byte
	payload []byte
}

// NewReader returns a Reader over r bounding payloads as ReadFrame does.
func NewReader(r io.Reader, maxPayload int) *Reader {
	return &Reader{r: bufio.NewReader(r), max: maxPayload}
}

// ReadFrame reads and verifies one frame from r. maxPayload bounds the
// payload allocation (values ≤ 0 or > MaxPayload mean MaxPayload); a header
// declaring more fails with ErrFrameTooLarge before any allocation, so
// arbitrary input can never force an over-allocation.
//
// A clean end of stream before any header byte returns io.EOF untouched;
// a stream that ends mid-frame returns ErrTruncated, wrapping the read's
// error (net.ErrClosed after a local Close). All other failures
// wrap the typed errors of this package. After any error except io.EOF the
// stream must be considered out of sync and the connection closed.
//
// ReadFrame is Reader.ReadFrame's one-shot form: it buffers nothing beyond
// the frame, and the payload it returns is the caller's.
func ReadFrame(r io.Reader, maxPayload int) (Frame, error) {
	rd := Reader{r: r, max: maxPayload}
	return rd.ReadFrame()
}

// ReadFrame reads and verifies the next frame, failing as the function
// ReadFrame does. The returned payload is overwritten by the next call.
func (rd *Reader) ReadFrame() (Frame, error) {
	maxPayload := rd.max
	if maxPayload <= 0 || maxPayload > MaxPayload {
		maxPayload = MaxPayload
	}
	hdr := &rd.hdr
	if _, err := io.ReadFull(rd.r, hdr[:]); err != nil {
		if err == io.EOF {
			return Frame{}, io.EOF
		}
		return Frame{}, fmt.Errorf("%w: header: %w", ErrTruncated, err)
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != Magic {
		return Frame{}, fmt.Errorf("%w: 0x%08x", ErrBadMagic, m)
	}
	v := hdr[4]
	if v != Version && v != VersionTrace {
		return Frame{}, fmt.Errorf("%w: %d", ErrVersion, v)
	}
	f := Frame{
		Type:    hdr[5],
		Flags:   binary.LittleEndian.Uint16(hdr[6:]),
		Request: binary.LittleEndian.Uint64(hdr[8:]),
	}
	if !validType(f.Type) {
		return Frame{}, fmt.Errorf("%w: 0x%02x", ErrUnknownType, f.Type)
	}
	defined := uint16(flagsDefined)
	if v == VersionTrace {
		defined |= FlagTraceContext
	}
	if bad := f.Flags &^ defined; bad != 0 {
		return Frame{}, fmt.Errorf("%w: 0x%04x", ErrBadFlags, bad)
	}
	// The version byte and the flag bit must agree: the frame's shape is
	// determined by the header alone, with no legal ambiguous encoding.
	if v == VersionTrace && f.Flags&FlagTraceContext == 0 {
		return Frame{}, fmt.Errorf("%w: version %d frame without FlagTraceContext", ErrBadTrace, v)
	}
	n := binary.LittleEndian.Uint32(hdr[16:])
	if n > uint32(maxPayload) {
		return Frame{}, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, maxPayload)
	}
	want := binary.LittleEndian.Uint32(hdr[20:])
	sum := crc32.Update(0, castagnoli, hdr[:20])
	payload := []byte(nil)
	if n > 0 {
		if cap(rd.payload) < int(n) {
			rd.payload = make([]byte, n)
		}
		payload = rd.payload[:n]
		if _, err := io.ReadFull(rd.r, payload); err != nil {
			return Frame{}, fmt.Errorf("%w: payload: %w", ErrTruncated, err)
		}
		sum = crc32.Update(sum, castagnoli, payload)
	}
	if sum != want {
		return Frame{}, fmt.Errorf("%w: computed 0x%08x, frame claims 0x%08x", ErrChecksum, sum, want)
	}
	if f.Flags&FlagTraceContext != 0 {
		if len(payload) < traceExtSize {
			return Frame{}, fmt.Errorf("%w: payload of %d bytes below the %d-byte extension", ErrBadTrace, len(payload), traceExtSize)
		}
		f.Trace.ID = binary.LittleEndian.Uint64(payload[0:])
		f.Trace.Flags = binary.LittleEndian.Uint16(payload[8:])
		if bad := f.Trace.Flags &^ traceFlagsDefined; bad != 0 {
			return Frame{}, fmt.Errorf("%w: undefined trace flag bits 0x%04x", ErrBadTrace, bad)
		}
		if rsv := binary.LittleEndian.Uint16(payload[10:]); rsv != 0 {
			return Frame{}, fmt.Errorf("%w: non-zero reserved bytes 0x%04x", ErrBadTrace, rsv)
		}
		payload = payload[traceExtSize:]
		if len(payload) == 0 {
			payload = nil
		}
	}
	f.Payload = payload
	return f, nil
}
