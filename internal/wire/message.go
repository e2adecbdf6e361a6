package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"spatialjoin/internal/core"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/pred"
)

// Operator codes: the θ-operators of Table 1 the protocol can name, each
// with up to two float64 parameters.
const (
	// OpOverlaps is "o₁ overlaps o₂" (no parameters).
	OpOverlaps uint8 = 0
	// OpWithinDistance is "o₁ within distance P1 from o₂".
	OpWithinDistance uint8 = 1
	// OpDistanceBand is "o₁ between P1 and P2 from o₂".
	OpDistanceBand uint8 = 2
	// OpIncludes is "o₁ includes o₂".
	OpIncludes uint8 = 3
	// OpContainedIn is "o₁ contained in o₂".
	OpContainedIn uint8 = 4
	// OpNorthwestOf is "o₁ to the northwest of o₂".
	OpNorthwestOf uint8 = 5
	// OpReachableWithin is "o₁ reachable from o₂ in P1 minutes at speed P2".
	OpReachableWithin uint8 = 6
)

// Strategy codes mirror the root package's Strategy values.
const (
	// StrategyTree is the hierarchical generalization-tree descent (II).
	StrategyTree uint8 = 0
	// StrategyScan is the nested-loop / exhaustive-scan baseline (I).
	StrategyScan uint8 = 1
	// StrategyIndex answers from a precomputed join index (III).
	StrategyIndex uint8 = 2
)

// maxNameLen bounds collection names on the wire.
const maxNameLen = 256

// OpSpec is a wire-encodable θ-operator: a code plus its parameters.
type OpSpec struct {
	Code   uint8
	P1, P2 float64
}

// Overlaps returns the parameterless overlaps OpSpec, the common case.
func Overlaps() OpSpec { return OpSpec{Code: OpOverlaps} }

// Operator materializes the spec as the engine's θ-operator, or fails with
// an ErrBadPayload-wrapped error for an unknown code.
func (o OpSpec) Operator() (pred.Operator, error) {
	switch o.Code {
	case OpOverlaps:
		return pred.Overlaps{}, nil
	case OpWithinDistance:
		return pred.WithinDistance{D: o.P1}, nil
	case OpDistanceBand:
		return pred.DistanceBand{Lo: o.P1, Hi: o.P2}, nil
	case OpIncludes:
		return pred.Includes{}, nil
	case OpContainedIn:
		return pred.ContainedIn{}, nil
	case OpNorthwestOf:
		return pred.NorthwestOf{}, nil
	case OpReachableWithin:
		return pred.ReachableWithin{Minutes: o.P1, Speed: o.P2}, nil
	default:
		return nil, fmt.Errorf("%w: unknown operator code %d", ErrBadPayload, o.Code)
	}
}

// SelectRequest asks for the IDs of objects of Collection matching
// Selector θ-related by Op, computed with Strategy.
type SelectRequest struct {
	Strategy   uint8
	Op         OpSpec
	Collection string
	Selector   geom.Rect
}

// JoinRequest asks for R ⋈θ S computed with Strategy.
type JoinRequest struct {
	Strategy uint8
	Op       OpSpec
	R, S     string
}

// QueryStats is the measured work a Done frame reports, in the cost
// model's units (a subset of the engine's Stats).
type QueryStats struct {
	FilterEvals int64
	ExactEvals  int64
	// PageReads are the misses this query's own fetches caused on the
	// server's pool, whatever else the server ran beside it.
	PageReads  int64
	IndexReads int64
	Downgrades int64
}

// Done is the payload of a TypeDone frame: the query's typed verdict, the
// total number of results streamed before it, the measured work, an
// optional diagnostic message, and — only when the request carried a
// sampled trace context — the server's span summary, which the client
// grafts under its call span to render one end-to-end tree. The span block
// is appended after the message field only when non-empty, so a Done
// without spans is byte-identical to what peers predating the extension
// produced and expect.
type Done struct {
	Status  Status
	Results uint64
	Stats   QueryStats
	Message string
	Spans   []obs.RemoteSpan
}

// buf is a cursor over a payload being decoded; all take-methods fail with
// ErrBadPayload once the payload is exhausted.
type buf struct {
	b []byte
}

func (b *buf) u8() (uint8, error) {
	if len(b.b) < 1 {
		return 0, fmt.Errorf("%w: short payload", ErrBadPayload)
	}
	v := b.b[0]
	b.b = b.b[1:]
	return v, nil
}

func (b *buf) u16() (uint16, error) {
	if len(b.b) < 2 {
		return 0, fmt.Errorf("%w: short payload", ErrBadPayload)
	}
	v := binary.LittleEndian.Uint16(b.b)
	b.b = b.b[2:]
	return v, nil
}

func (b *buf) u32() (uint32, error) {
	if len(b.b) < 4 {
		return 0, fmt.Errorf("%w: short payload", ErrBadPayload)
	}
	v := binary.LittleEndian.Uint32(b.b)
	b.b = b.b[4:]
	return v, nil
}

func (b *buf) u64() (uint64, error) {
	if len(b.b) < 8 {
		return 0, fmt.Errorf("%w: short payload", ErrBadPayload)
	}
	v := binary.LittleEndian.Uint64(b.b)
	b.b = b.b[8:]
	return v, nil
}

func (b *buf) f64() (float64, error) {
	v, err := b.u64()
	return math.Float64frombits(v), err
}

// str decodes a u16-length-prefixed string bounded by maxNameLen.
func (b *buf) str() (string, error) {
	s, err := b.strBytes()
	return string(s), err
}

// strBytes reads a length-prefixed string as a window on the payload.
func (b *buf) strBytes() ([]byte, error) {
	n, err := b.u16()
	if err != nil {
		return nil, err
	}
	if int(n) > maxNameLen {
		return nil, fmt.Errorf("%w: name of %d bytes exceeds %d", ErrBadPayload, n, maxNameLen)
	}
	if len(b.b) < int(n) {
		return nil, fmt.Errorf("%w: short payload", ErrBadPayload)
	}
	s := b.b[:n]
	b.b = b.b[n:]
	return s, nil
}

// Names interns the collection names requests are decoded with: a name
// decoded through it before comes back as the string kept then, so
// decoding it again allocates nothing. It keeps the first maxNames distinct
// names and copies any other, as DecodeSelect and DecodeJoin copy every
// name. The zero Names is ready to use; it is not safe for concurrent use.
type Names struct{ m map[string]string }

// maxNames bounds what one Names keeps, whatever names a peer sends.
const maxNames = 64

// name reads a collection name from b, interned in n (copied when n is nil).
func (n *Names) name(b *buf) (string, error) {
	raw, err := b.strBytes()
	if err != nil || n == nil {
		return string(raw), err
	}
	if s, ok := n.m[string(raw)]; ok {
		return s, nil
	}
	s := string(raw)
	if len(n.m) < maxNames {
		if n.m == nil {
			n.m = make(map[string]string)
		}
		n.m[s] = s
	}
	return s, nil
}

// done asserts the payload was consumed exactly.
func (b *buf) done() error {
	if len(b.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadPayload, len(b.b))
	}
	return nil
}

// appendStr appends a u16-length-prefixed string.
func appendStr(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// appendF64 appends a little-endian float64.
func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

// checkName validates a collection name for encoding.
func checkName(s string) error {
	if s == "" || len(s) > maxNameLen {
		return fmt.Errorf("wire: collection name of %d bytes (want 1..%d)", len(s), maxNameLen)
	}
	return nil
}

// EncodeSelect renders the request as a TypeSelect payload.
func EncodeSelect(q SelectRequest) ([]byte, error) {
	if err := checkName(q.Collection); err != nil {
		return nil, err
	}
	return appendSelect(make([]byte, 0, 4+2*8+2+len(q.Collection)+4*8), q), nil
}

// appendSelect appends a TypeSelect payload; the caller checks the name.
func appendSelect(dst []byte, q SelectRequest) []byte {
	dst = append(dst, q.Strategy, q.Op.Code)
	dst = appendF64(dst, q.Op.P1)
	dst = appendF64(dst, q.Op.P2)
	dst = appendStr(dst, q.Collection)
	dst = appendF64(dst, q.Selector.MinX)
	dst = appendF64(dst, q.Selector.MinY)
	dst = appendF64(dst, q.Selector.MaxX)
	return appendF64(dst, q.Selector.MaxY)
}

// DecodeSelect parses a TypeSelect payload.
func DecodeSelect(p []byte) (SelectRequest, error) { return (*Names)(nil).DecodeSelect(p) }

// DecodeSelect parses a TypeSelect payload, its collection name interned
// in n.
func (n *Names) DecodeSelect(p []byte) (SelectRequest, error) {
	b := buf{p}
	var q SelectRequest
	var err error
	if q.Strategy, err = b.u8(); err != nil {
		return q, err
	}
	if q.Op.Code, err = b.u8(); err != nil {
		return q, err
	}
	if q.Op.P1, err = b.f64(); err != nil {
		return q, err
	}
	if q.Op.P2, err = b.f64(); err != nil {
		return q, err
	}
	if q.Collection, err = n.name(&b); err != nil {
		return q, err
	}
	if q.Selector.MinX, err = b.f64(); err != nil {
		return q, err
	}
	if q.Selector.MinY, err = b.f64(); err != nil {
		return q, err
	}
	if q.Selector.MaxX, err = b.f64(); err != nil {
		return q, err
	}
	if q.Selector.MaxY, err = b.f64(); err != nil {
		return q, err
	}
	return q, b.done()
}

// EncodeJoin renders the request as a TypeJoin payload.
func EncodeJoin(q JoinRequest) ([]byte, error) {
	if err := checkName(q.R); err != nil {
		return nil, err
	}
	if err := checkName(q.S); err != nil {
		return nil, err
	}
	return appendJoin(make([]byte, 0, 4+2*8+4+len(q.R)+len(q.S)), q), nil
}

// appendJoin appends a TypeJoin payload; the caller checks the names.
func appendJoin(dst []byte, q JoinRequest) []byte {
	dst = append(dst, q.Strategy, q.Op.Code)
	dst = appendF64(dst, q.Op.P1)
	dst = appendF64(dst, q.Op.P2)
	dst = appendStr(dst, q.R)
	return appendStr(dst, q.S)
}

// DecodeJoin parses a TypeJoin payload.
func DecodeJoin(p []byte) (JoinRequest, error) { return (*Names)(nil).DecodeJoin(p) }

// DecodeJoin parses a TypeJoin payload, its collection names interned in n.
func (n *Names) DecodeJoin(p []byte) (JoinRequest, error) {
	b := buf{p}
	var q JoinRequest
	var err error
	if q.Strategy, err = b.u8(); err != nil {
		return q, err
	}
	if q.Op.Code, err = b.u8(); err != nil {
		return q, err
	}
	if q.Op.P1, err = b.f64(); err != nil {
		return q, err
	}
	if q.Op.P2, err = b.f64(); err != nil {
		return q, err
	}
	if q.R, err = n.name(&b); err != nil {
		return q, err
	}
	if q.S, err = n.name(&b); err != nil {
		return q, err
	}
	return q, b.done()
}

// MaxMatchesPerFrame is the largest match batch a TypeMatches payload can
// carry within MaxPayload.
const MaxMatchesPerFrame = (MaxPayload - 4) / 16

// EncodeMatches renders one streamed batch of match pairs. It panics when
// the batch exceeds MaxMatchesPerFrame — the server's batcher slices
// beneath the bound.
func EncodeMatches(ms []core.Match) []byte {
	return appendMatches(make([]byte, 0, 4+16*len(ms)), ms)
}

// appendMatches appends a TypeMatches payload.
func appendMatches(dst []byte, ms []core.Match) []byte {
	if len(ms) > MaxMatchesPerFrame {
		panic(fmt.Sprintf("wire: match batch of %d exceeds %d", len(ms), MaxMatchesPerFrame))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ms)))
	for _, m := range ms {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(m.R)))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(m.S)))
	}
	return dst
}

// DecodeMatches parses a TypeMatches payload, appending to dst.
func DecodeMatches(dst []core.Match, p []byte) ([]core.Match, error) {
	b := buf{p}
	n, err := b.u32()
	if err != nil {
		return dst, err
	}
	if uint64(n)*16 != uint64(len(b.b)) {
		return dst, fmt.Errorf("%w: match batch claims %d pairs over %d bytes", ErrBadPayload, n, len(b.b))
	}
	dst = slices.Grow(dst, int(n))
	for i := uint32(0); i < n; i++ {
		r, _ := b.u64()
		s, _ := b.u64()
		dst = append(dst, core.Match{R: int(int64(r)), S: int(int64(s))})
	}
	return dst, b.done()
}

// MaxIDsPerFrame is the largest ID batch a TypeIDs payload can carry.
const MaxIDsPerFrame = (MaxPayload - 4) / 8

// EncodeIDs renders one streamed batch of SELECT result IDs. It panics
// when the batch exceeds MaxIDsPerFrame.
func EncodeIDs(ids []int) []byte {
	return appendIDs(make([]byte, 0, 4+8*len(ids)), ids)
}

// appendIDs appends a TypeIDs payload.
func appendIDs(dst []byte, ids []int) []byte {
	if len(ids) > MaxIDsPerFrame {
		panic(fmt.Sprintf("wire: id batch of %d exceeds %d", len(ids), MaxIDsPerFrame))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ids)))
	for _, id := range ids {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(id)))
	}
	return dst
}

// DecodeIDs parses a TypeIDs payload, appending to dst.
func DecodeIDs(dst []int, p []byte) ([]int, error) {
	b := buf{p}
	n, err := b.u32()
	if err != nil {
		return dst, err
	}
	if uint64(n)*8 != uint64(len(b.b)) {
		return dst, fmt.Errorf("%w: id batch claims %d ids over %d bytes", ErrBadPayload, n, len(b.b))
	}
	dst = slices.Grow(dst, int(n))
	for i := uint32(0); i < n; i++ {
		id, _ := b.u64()
		dst = append(dst, int(int64(id)))
	}
	return dst, b.done()
}

// maxMessageLen bounds the diagnostic text of a Done frame.
const maxMessageLen = 1024

// EncodeDone renders a Done payload. Overlong messages are truncated, not
// rejected: the diagnostic is best-effort.
func EncodeDone(d Done) []byte {
	return appendDone(make([]byte, 0, 2+8+5*8+2+min(len(d.Message), maxMessageLen)), d)
}

// appendDone appends a Done payload.
func appendDone(dst []byte, d Done) []byte {
	msg := d.Message
	if len(msg) > maxMessageLen {
		msg = msg[:maxMessageLen]
	}
	dst = append(dst, uint8(d.Status), 0)
	dst = binary.LittleEndian.AppendUint64(dst, d.Results)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(d.Stats.FilterEvals))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(d.Stats.ExactEvals))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(d.Stats.PageReads))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(d.Stats.IndexReads))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(d.Stats.Downgrades))
	dst = appendStr(dst, msg)
	if len(d.Spans) > 0 {
		dst = appendSpans(dst, d.Spans)
	}
	return dst
}

// DecodeDone parses a Done payload.
func DecodeDone(p []byte) (Done, error) {
	b := buf{p}
	var d Done
	st, err := b.u8()
	if err != nil {
		return d, err
	}
	d.Status = Status(st)
	if _, err := b.u8(); err != nil { // reserved
		return d, err
	}
	if d.Results, err = b.u64(); err != nil {
		return d, err
	}
	read := func(dst *int64) bool {
		v, e := b.u64()
		*dst = int64(v)
		err = e
		return e == nil
	}
	if !read(&d.Stats.FilterEvals) || !read(&d.Stats.ExactEvals) ||
		!read(&d.Stats.PageReads) || !read(&d.Stats.IndexReads) || !read(&d.Stats.Downgrades) {
		return d, err
	}
	n, err := b.u16()
	if err != nil {
		return d, err
	}
	if int(n) > maxMessageLen || len(b.b) < int(n) {
		return d, fmt.Errorf("%w: done message of %d bytes", ErrBadPayload, n)
	}
	d.Message = string(b.b[:n])
	b.b = b.b[n:]
	if len(b.b) > 0 {
		// An appended span summary; an empty remainder is the pre-extension
		// encoding and means no spans.
		if d.Spans, err = decodeSpans(&b); err != nil {
			return d, err
		}
	}
	return d, b.done()
}
