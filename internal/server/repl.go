package server

// Replication stream serving: a replica opens a stream with a REPL_TAIL or
// SNAP_DELTA frame and the session pumps the configured ReplStreamer's
// chunks back at it, closed by a typed Done verdict. Streams bypass query
// admission — they are long-lived, I/O-bound, and already bounded by
// MaxConns — but respect drain: a draining server refuses new streams, and
// Shutdown ends running ones by closing their connections.

import (
	"bytes"
	"context"
	"errors"

	"spatialjoin/internal/wal"
	"spatialjoin/internal/wire"
)

// startRepl vets one replication stream request and serves it on its own
// session-tracked goroutine, so the read loop keeps decoding frames.
func (ss *session) startRepl(f wire.Frame) {
	if ss.srv.opts.Repl == nil {
		ss.writeDone(f.Request, 0, wire.Done{
			Status:  wire.StatusBadRequest,
			Message: "replication not served here",
		})
		return
	}
	if ss.srv.draining.Load() {
		ss.writeDone(f.Request, wire.FlagShed, wire.Done{
			Status:  wire.StatusShuttingDown,
			Message: "stream refused: " + wire.StatusShuttingDown.String(),
		})
		return
	}
	// The stream outlives the read loop's payload buffer: keep a copy.
	f.Payload = bytes.Clone(f.Payload)
	ss.wg.Add(1)
	go func() {
		defer ss.wg.Done()
		ss.runRepl(f)
	}()
}

// runRepl serves one tail or snapshot stream to completion and closes it
// with a Done frame: OK for a finished snapshot, GONE when the log no
// longer reaches the replica's tail ask (resync from a delta), and
// SHUTTING_DOWN when the primary drains mid-stream.
func (ss *session) runRepl(f wire.Frame) {
	var err error
	switch f.Type {
	case wire.TypeReplTail:
		q, derr := wire.DecodeReplTail(f.Payload)
		if derr != nil {
			ss.writeDone(f.Request, 0, wire.Done{Status: wire.StatusBadRequest, Message: derr.Error()})
			return
		}
		ss.srv.m.replTails.Inc()
		err = ss.srv.opts.Repl.StreamTail(ss.srv.baseCtx, wal.LSN(q.FromLSN), func(c wire.WALChunk) error {
			p, eerr := wire.EncodeWALChunk(c)
			if eerr != nil {
				return eerr
			}
			return ss.write(wire.Frame{Type: wire.TypeWALChunk, Request: f.Request}, p)
		})
	case wire.TypeSnapDelta:
		q, derr := wire.DecodeSnapDelta(f.Payload)
		if derr != nil {
			ss.writeDone(f.Request, 0, wire.Done{Status: wire.StatusBadRequest, Message: derr.Error()})
			return
		}
		ss.srv.m.replSnaps.Inc()
		_, err = ss.srv.opts.Repl.StreamSnap(ss.srv.baseCtx, wal.LSN(q.SinceLSN), func(c wire.SnapChunk) error {
			p, eerr := wire.EncodeSnapChunk(c)
			if eerr != nil {
				return eerr
			}
			return ss.write(wire.Frame{Type: wire.TypeSnapChunk, Request: f.Request}, p)
		})
	}
	switch {
	case err == nil:
		ss.writeDone(f.Request, 0, wire.Done{Status: wire.StatusOK})
	case errors.Is(err, wal.ErrTruncatedAway):
		ss.writeDone(f.Request, 0, wire.Done{Status: wire.StatusGone, Message: err.Error()})
	case errors.Is(err, context.Canceled) || ss.srv.draining.Load():
		ss.writeDone(f.Request, 0, wire.Done{Status: wire.StatusShuttingDown, Message: "primary draining"})
	default:
		// Send failures land here too; the Done write then fails the same
		// way, which is fine — the replica is gone either way.
		ss.writeDone(f.Request, 0, wire.Done{Status: wire.StatusInternal, Message: err.Error()})
	}
}
