// Package wire is the binary framed protocol of the spatial query server:
// fixed-layout length-prefixed frames — magic, version, type, flags, a
// request ID for pipelining, and a CRC-32C (Castagnoli) checksum covering
// header and payload — carrying SELECT/JOIN requests and streamed match-set
// responses.
//
// Frame layout (little-endian, 24-byte header):
//
//	offset size  field
//	0      4     magic "SJW1" (0x31574A53 LE)
//	4      1     protocol version (1, or 2 with the trace-context extension)
//	5      1     frame type
//	6      2     flags (undefined bits are a decode error)
//	8      8     request ID (client-assigned; responses echo it)
//	16     4     payload length (≤ MaxPayload)
//	20     4     CRC-32C over header[0:20] ++ payload
//
// A version-2 frame sets FlagTraceContext and opens its payload with the
// fixed 12-byte trace-context extension (u64 trace ID, u16 trace flags,
// u16 reserved zero); ReadFrame strips it into Frame.Trace so message
// decoders see only the message payload. Version 1 never carries the
// extension — an untraced conversation is byte-identical to one with a
// peer that predates it.
//
// A connection is a full-duplex stream of frames. The client assigns a
// non-zero request ID to every request and may pipeline: many requests may
// be outstanding at once, and response frames for different requests may
// interleave — the request ID is the only correlation. A query's response
// is zero or more Matches/IDs batch frames followed by exactly one Done
// frame carrying the typed status and the query's measured work. A Done
// frame with request ID 0 is a connection-level verdict (e.g. SERVER_BUSY
// at accept when the server is over its connection limit) and the peer
// closes the connection after sending it.
//
// Every decode failure is a typed error (ErrBadMagic, ErrVersion,
// ErrBadFlags, ErrUnknownType, ErrFrameTooLarge, ErrChecksum,
// ErrTruncated, ErrBadPayload, ErrBadTrace) so harnesses can assert the
// exact failure shape, and the decoder never allocates more than
// MaxPayload bytes no matter what length a hostile header declares.
package wire

import (
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
)

// Magic opens every frame: "SJW1" in stream order.
const Magic uint32 = 0x31574A53 // 'S' 'J' 'W' '1' little-endian

// Version is the baseline protocol version this package speaks. Frames
// carrying neither it nor VersionTrace are rejected with ErrVersion.
const Version = 1

// VersionTrace is the protocol version of frames carrying the trace-context
// extension (FlagTraceContext). The version byte is the interop gate: a
// peer that only speaks version 1 rejects a traced frame with the clean
// typed ErrVersion instead of misreading its payload, while untraced
// traffic stays version 1 in both directions — old and new peers
// interoperate unchanged until a caller actually arms tracing.
const VersionTrace = 2

// HeaderSize is the fixed frame header length in bytes.
const HeaderSize = 24

// MaxPayload bounds a frame's payload. The decoder rejects larger declared
// lengths before allocating, so arbitrary input can never force an
// over-allocation.
const MaxPayload = 1 << 20

// Frame types. Requests flow client → server; responses carry the high bit.
const (
	// TypePing is an empty liveness request; the server answers TypePong.
	TypePing uint8 = 0x01
	// TypeSelect carries a SelectRequest payload.
	TypeSelect uint8 = 0x02
	// TypeJoin carries a JoinRequest payload.
	TypeJoin uint8 = 0x03
	// TypeReplTail carries a ReplTailRequest payload: a replica asking the
	// primary to stream WAL records from an LSN.
	TypeReplTail uint8 = 0x04
	// TypeSnapDelta carries a SnapDeltaRequest payload: a replica asking
	// for a snapshot of the pages dirtied since an LSN (0 = full snapshot).
	TypeSnapDelta uint8 = 0x05

	// TypePong is the empty answer to TypePing.
	TypePong uint8 = 0x81
	// TypeMatches is one streamed batch of (R, S) match pairs of a JOIN.
	TypeMatches uint8 = 0x82
	// TypeIDs is one streamed batch of object IDs of a SELECT.
	TypeIDs uint8 = 0x83
	// TypeDone terminates a query's response: typed status, result count,
	// and the query's measured work (see Done).
	TypeDone uint8 = 0x84
	// TypeWALChunk is one streamed batch of raw WAL records answering a
	// TypeReplTail request.
	TypeWALChunk uint8 = 0x85
	// TypeSnapChunk is one streamed slice of an encoded snapshot (full or
	// delta) answering a TypeSnapDelta request.
	TypeSnapChunk uint8 = 0x86
)

// Flags.
const (
	// FlagShed marks a Done frame for a query (or connection, with request
	// ID 0) the server rejected before executing anything: admission
	// control shed it (SERVER_BUSY) or the server is draining
	// (SHUTTING_DOWN). A shed query did zero engine work.
	FlagShed uint16 = 1 << 0

	// FlagTraceContext marks a frame whose payload opens with the
	// trace-context extension (see TraceContext). Only valid on
	// VersionTrace frames: the flag without the version (or the version
	// without the flag) is a decode error, so a frame's shape is always
	// determined by its header alone.
	FlagTraceContext uint16 = 1 << 1

	// flagsDefined masks the flag bits version 1 defines; any other set
	// bit fails decoding with ErrBadFlags. VersionTrace frames may
	// additionally set FlagTraceContext.
	flagsDefined = FlagShed
)

// TraceContext is the optional trace-context frame extension: when a
// frame's header sets FlagTraceContext, its payload opens with this fixed
// 12-byte block (little-endian u64 trace ID, u16 trace flags, u16 reserved
// zero), which ReadFrame strips into Frame.Trace before the message payload
// is seen by any decoder. The trace ID is the caller's obs.Trace identity;
// the server adopts it so spans recorded on both sides of the wire carry
// one ID.
type TraceContext struct {
	ID    uint64
	Flags uint16
}

// Trace-context flag bits.
const (
	// TraceFlagSampled marks a trace the caller is actually recording; the
	// server exports its span summary on the DONE verdict only for sampled
	// traces.
	TraceFlagSampled uint16 = 1 << 0

	// traceFlagsDefined masks the trace-context flag bits this version
	// defines; any other set bit fails decoding with ErrBadTrace.
	traceFlagsDefined = TraceFlagSampled
)

// traceExtSize is the encoded TraceContext length prefixing the payload.
const traceExtSize = 12

// Status is the typed verdict of a Done frame.
type Status uint8

// Status codes.
const (
	// StatusOK: the query ran to completion; the streamed results are the
	// exact canonical answer.
	StatusOK Status = 0
	// StatusDegraded: permanent index loss forced the engine down to the
	// scan strategy (Stats.Downgrades > 0) — the streamed results are
	// still the exact canonical answer, only the cost changed.
	StatusDegraded Status = 1
	// StatusTimeout: the query's deadline (Config.QueryTimeout or the
	// session's context) expired mid-descent; no trustworthy results.
	StatusTimeout Status = 2
	// StatusServerBusy: admission control shed the query (or connection)
	// without executing it.
	StatusServerBusy Status = 3
	// StatusShuttingDown: the server is draining and takes no new work.
	StatusShuttingDown Status = 4
	// StatusBadRequest: the request payload did not decode or named an
	// unknown operator or strategy.
	StatusBadRequest Status = 5
	// StatusNotFound: the request named a collection (or required join
	// index) the server does not have.
	StatusNotFound Status = 6
	// StatusInternal: a typed storage fault degradation could not route
	// around, or any other engine failure.
	StatusInternal Status = 7
	// StatusStale: a replica refused the query because its replication lag
	// exceeded the configured bound; retry against the primary or wait for
	// the replica to catch up. A stale query did zero engine work.
	StatusStale Status = 8
	// StatusGone: the primary can no longer serve the requested WAL tail —
	// a checkpoint truncated the log above the replica's ask. The replica
	// must fall back to a snapshot-delta resync.
	StatusGone Status = 9
)

// statusNames and statusLabels are each status's String and Label, by code.
var (
	statusNames = [...]string{"OK", "DEGRADED", "TIMEOUT", "SERVER_BUSY", "SHUTTING_DOWN",
		"BAD_REQUEST", "NOT_FOUND", "INTERNAL", "STALE", "GONE"}
	statusLabels = [...]string{"ok", "degraded", "timeout", "server_busy", "shutting_down",
		"bad_request", "not_found", "internal", "stale", "gone"}
)

// String implements fmt.Stringer.
func (s Status) String() string {
	if int(s) < len(statusNames) {
		return statusNames[s]
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Label renders the status as a lowercase metrics label value, matching
// the engine's outcome-label convention (ok, degraded, timeout, ...). A
// known status's label is a constant, so labelling an answered query
// allocates nothing.
func (s Status) Label() string {
	if int(s) < len(statusLabels) {
		return statusLabels[s]
	}
	return strings.ToLower(s.String())
}

// Typed decode errors. Harnesses assert with errors.Is; every failure of
// ReadFrame and the message decoders wraps exactly one of these.
var (
	// ErrBadMagic: the stream's next four bytes are not the frame magic —
	// the connection is out of sync and must be closed.
	ErrBadMagic = errors.New("wire: bad frame magic")
	// ErrVersion: the frame carries a protocol version this package does
	// not speak.
	ErrVersion = errors.New("wire: unsupported protocol version")
	// ErrBadFlags: the frame sets flag bits this version does not define.
	ErrBadFlags = errors.New("wire: undefined flag bits")
	// ErrUnknownType: the frame type byte is not one this version defines.
	ErrUnknownType = errors.New("wire: unknown frame type")
	// ErrFrameTooLarge: the header declares a payload beyond MaxPayload;
	// rejected before any allocation.
	ErrFrameTooLarge = errors.New("wire: declared payload exceeds limit")
	// ErrChecksum: the CRC-32C over header and payload does not verify —
	// the frame was torn or corrupted in flight.
	ErrChecksum = errors.New("wire: frame checksum mismatch")
	// ErrTruncated: the stream ended inside a frame.
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrBadPayload: a frame's payload does not decode as the message its
	// type promises.
	ErrBadPayload = errors.New("wire: malformed message payload")
	// ErrBadTrace: the frame's trace-context extension is malformed — a
	// VersionTrace frame without FlagTraceContext, a payload too short for
	// the extension, undefined trace-flag bits, or non-zero reserved bytes.
	ErrBadTrace = errors.New("wire: malformed trace context")
)

// castagnoli is the CRC-32C table every frame checksum uses — the same
// polynomial the storage layer's page checksums use.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// validType reports whether t is a frame type this version defines.
func validType(t uint8) bool {
	switch t {
	case TypePing, TypeSelect, TypeJoin, TypeReplTail, TypeSnapDelta,
		TypePong, TypeMatches, TypeIDs, TypeDone, TypeWALChunk, TypeSnapChunk:
		return true
	}
	return false
}

// StatusError is the error shape the client surfaces for a non-OK,
// non-DEGRADED Done frame: the typed status plus the server's diagnostic
// message.
type StatusError struct {
	Status  Status
	Message string
}

// Error implements the error interface.
func (e *StatusError) Error() string {
	if e.Message == "" {
		return fmt.Sprintf("wire: server returned %v", e.Status)
	}
	return fmt.Sprintf("wire: server returned %v: %s", e.Status, e.Message)
}
