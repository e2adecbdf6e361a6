package wire

import (
	"encoding/binary"
	"fmt"
)

// Replication messages. A replica opens a stream with TypeReplTail or
// TypeSnapDelta; the primary answers with a run of TypeWALChunk or
// TypeSnapChunk frames (echoing the request ID) closed by a TypeDone frame
// whose status says how the stream ended: OK for a complete snapshot, GONE
// for a tail ask the log no longer reaches, SHUTTING_DOWN when the primary
// drains. A tail stream has no natural end — the primary keeps shipping
// chunks as the log grows until either side closes.

// MaxReplChunk bounds the data slice of one WALChunk or SnapChunk,
// comfortably under MaxPayload with the chunk headers on top.
const MaxReplChunk = 256 << 10

// ReplTailRequest asks the primary to stream WAL records starting at
// FromLSN, which must be a record boundary (the replica's durable end).
type ReplTailRequest struct {
	FromLSN uint64
}

// SnapDeltaRequest asks the primary for a snapshot covering the pages
// dirtied since the replica's last-applied LSN. SinceLSN 0 — or any LSN
// below the primary's tracking horizon — yields a full snapshot.
type SnapDeltaRequest struct {
	SinceLSN uint64
}

// WALChunk is one streamed batch of raw, CRC-checked WAL records:
// Records holds complete log records starting at stream offset BaseLSN.
// DurableLSN is the primary's durable end at ship time, so the replica can
// measure its lag even from a chunk that catches it up only partway.
type WALChunk struct {
	BaseLSN    uint64
	DurableLSN uint64
	Records    []byte
}

// SnapChunk is one streamed slice of an encoded snapshot: Data holds
// bytes [Offset, Offset+len(Data)) of the snapshot stream, whose own
// header says whether it is a full snapshot or a delta.
type SnapChunk struct {
	Offset uint64
	Data   []byte
}

// EncodeReplTail renders a TypeReplTail payload.
func EncodeReplTail(q ReplTailRequest) []byte {
	return binary.LittleEndian.AppendUint64(nil, q.FromLSN)
}

// DecodeReplTail parses a TypeReplTail payload.
func DecodeReplTail(p []byte) (ReplTailRequest, error) {
	b := buf{p}
	var q ReplTailRequest
	var err error
	if q.FromLSN, err = b.u64(); err != nil {
		return q, err
	}
	return q, b.done()
}

// EncodeSnapDelta renders a TypeSnapDelta payload.
func EncodeSnapDelta(q SnapDeltaRequest) []byte {
	return binary.LittleEndian.AppendUint64(nil, q.SinceLSN)
}

// DecodeSnapDelta parses a TypeSnapDelta payload.
func DecodeSnapDelta(p []byte) (SnapDeltaRequest, error) {
	b := buf{p}
	var q SnapDeltaRequest
	var err error
	if q.SinceLSN, err = b.u64(); err != nil {
		return q, err
	}
	return q, b.done()
}

// checkChunk validates a chunk's data slice for encoding.
func checkChunk(n int) error {
	if n > MaxReplChunk {
		return fmt.Errorf("wire: repl chunk of %d bytes exceeds %d", n, MaxReplChunk)
	}
	return nil
}

// EncodeWALChunk renders a TypeWALChunk payload.
func EncodeWALChunk(c WALChunk) ([]byte, error) {
	if err := checkChunk(len(c.Records)); err != nil {
		return nil, err
	}
	dst := make([]byte, 0, 8+8+4+len(c.Records))
	dst = binary.LittleEndian.AppendUint64(dst, c.BaseLSN)
	dst = binary.LittleEndian.AppendUint64(dst, c.DurableLSN)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.Records)))
	return append(dst, c.Records...), nil
}

// DecodeWALChunk parses a TypeWALChunk payload. Records aliases the input:
// frame payloads are freshly allocated per frame, so the alias is safe and
// saves a copy on the hot shipping path.
func DecodeWALChunk(p []byte) (WALChunk, error) {
	b := buf{p}
	var c WALChunk
	var err error
	if c.BaseLSN, err = b.u64(); err != nil {
		return c, err
	}
	if c.DurableLSN, err = b.u64(); err != nil {
		return c, err
	}
	n, err := b.u32()
	if err != nil {
		return c, err
	}
	if int64(n) > MaxReplChunk || int(n) != len(b.b) {
		return c, fmt.Errorf("%w: wal chunk claims %d record bytes over %d", ErrBadPayload, n, len(b.b))
	}
	c.Records = b.b
	return c, nil
}

// EncodeSnapChunk renders a TypeSnapChunk payload.
func EncodeSnapChunk(c SnapChunk) ([]byte, error) {
	if err := checkChunk(len(c.Data)); err != nil {
		return nil, err
	}
	dst := make([]byte, 0, 8+4+len(c.Data))
	dst = binary.LittleEndian.AppendUint64(dst, c.Offset)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.Data)))
	return append(dst, c.Data...), nil
}

// DecodeSnapChunk parses a TypeSnapChunk payload. Data aliases the input,
// as in DecodeWALChunk.
func DecodeSnapChunk(p []byte) (SnapChunk, error) {
	b := buf{p}
	var c SnapChunk
	var err error
	if c.Offset, err = b.u64(); err != nil {
		return c, err
	}
	n, err := b.u32()
	if err != nil {
		return c, err
	}
	if int64(n) > MaxReplChunk || int(n) != len(b.b) {
		return c, fmt.Errorf("%w: snap chunk claims %d bytes over %d", ErrBadPayload, n, len(b.b))
	}
	c.Data = b.b
	return c, nil
}
