package server

import (
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"spatialjoin"
	"spatialjoin/internal/core"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/wire"
)

// session is one client connection: a read loop decoding request frames,
// query goroutines executing admitted work against the engine, and a
// write mutex serializing the interleaved response frames of pipelined
// queries. A finished query goroutine idles for the next query unless one
// already does: a client that waits for each answer runs on one goroutine.
type session struct {
	srv  *Server
	conn net.Conn

	wmu     sync.Mutex     // serializes response frames
	out     []byte         // under wmu: the response frame being written
	wg      sync.WaitGroup // the session's query and stream goroutines
	names   wire.Names     // the read loop's: collection names decoded so far
	queries chan query     // unbuffered: the read loop's hand-off to the idle goroutine
	idle    atomic.Bool    // a query goroutine will receive from queries next
}

// query is one admitted request, decoded: no reference to the payload.
type query struct {
	request uint64
	kind    string // "select" or "join"
	sq      wire.SelectRequest
	jq      wire.JoinRequest
	derr    error
	qt      queryTrace
}

// newSession wraps an accepted connection.
func newSession(srv *Server, conn net.Conn) *session {
	return &session{srv: srv, conn: conn, queries: make(chan query)}
}

// run is the session loop: it decodes frames until the connection dies or
// desynchronizes, dispatches requests, and on exit closes the hand-off and
// waits for the session's goroutines before unregistering — Shutdown's
// sessionWG.Wait therefore transitively waits for every query goroutine. A
// frame's payload is the reader's buffer, which the next read overwrites,
// so a query is decoded, and a replication request copied, first.
func (ss *session) run() {
	defer func() {
		close(ss.queries)
		ss.wg.Wait()
		_ = ss.conn.Close()
		ss.srv.removeSession(ss)
	}()
	rd := wire.NewReader(ss.conn, wire.MaxPayload)
	for {
		f, err := rd.ReadFrame()
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) && !errors.Is(err, wire.ErrTruncated) {
				// The stream carried garbage (bad magic, checksum, ...):
				// tell the client why before hanging up. Request ID 0
				// marks the verdict connection-level.
				ss.writeDone(0, wire.FlagShed, wire.Done{
					Status:  wire.StatusBadRequest,
					Message: err.Error(),
				})
			}
			return
		}
		ss.srv.m.framesIn.Inc()
		switch f.Type {
		case wire.TypePing:
			_ = ss.write(wire.Frame{Type: wire.TypePong, Request: f.Request}, nil)
		case wire.TypeSelect, wire.TypeJoin:
			ss.dispatch(f)
		case wire.TypeReplTail, wire.TypeSnapDelta:
			ss.startRepl(f)
		default:
			// A response-typed frame from a client is a protocol error the
			// stream cannot recover from.
			ss.writeDone(0, wire.FlagShed, wire.Done{
				Status:  wire.StatusBadRequest,
				Message: "response-typed frame from client",
			})
			return
		}
	}
}

// write sends one frame carrying msg (see wire.AppendMessage) with one
// Write under the session write lock, encoding it into the session's reused
// buffer. It reports the failure, so a streaming loop stops instead of
// shipping into a dead connection; single-frame answers (Pong, Done) ignore
// it, because the read loop notices the closed connection anyway.
func (ss *session) write(f wire.Frame, msg any) error {
	ss.wmu.Lock()
	defer ss.wmu.Unlock()
	ss.out = wire.AppendMessage(ss.out[:0], f, msg)
	_, err := ss.conn.Write(ss.out)
	if err == nil {
		ss.srv.m.framesOut.Inc()
	}
	return err
}

// writeDone sends a Done verdict for a request.
func (ss *session) writeDone(request uint64, flags uint16, d wire.Done) {
	_ = ss.write(wire.Frame{Type: wire.TypeDone, Flags: flags, Request: request}, d)
}

// shed refuses a query without executing anything. The refusal lands in
// the flight recorder with the request's propagated trace ID (0 when
// untraced), so a post-incident dump shows which traced callers were
// turned away.
func (ss *session) shed(request uint64, kind string, status wire.Status, traceID uint64) {
	ss.srv.m.shed.Inc()
	ss.srv.m.queryOutcome(kind, status)
	code := obs.RecCodeBusy
	if status == wire.StatusShuttingDown {
		code = obs.RecCodeShuttingDown
	}
	obs.Record(obs.RecAdmissionShed, code, traceID, 0, 0)
	ss.writeDone(request, wire.FlagShed, wire.Done{
		Status:  status,
		Message: "query shed: " + status.String(),
	})
}

// queryTrace is the server-side trace of one traced query: the adopted
// obs.Trace (carrying the client's propagated ID) and its root span, under
// which admission, engine, and streaming spans nest. The zero value means
// the request carried no trace context and every method no-ops.
type queryTrace struct {
	tr   *obs.Trace
	root obs.SpanID
}

// adoptTrace builds the server-side trace for a request frame carrying a
// sampled trace context.
func adoptTrace(f wire.Frame) queryTrace {
	if f.Flags&wire.FlagTraceContext == 0 || f.Trace.Flags&wire.TraceFlagSampled == 0 {
		return queryTrace{}
	}
	tr := obs.NewTrace()
	tr.SetID(f.Trace.ID)
	return queryTrace{tr: tr, root: tr.Begin(0, "server")}
}

// ctx arms the trace on the engine context so engine spans (query, levels,
// the join-index scrub) nest under the server root span.
func (qt queryTrace) ctx(base context.Context) context.Context {
	if qt.tr == nil {
		return base
	}
	return obs.ContextWithSpan(obs.ContextWithTrace(base, qt.tr), qt.root)
}

// export closes the root span and flattens the trace for the DONE verdict.
func (qt queryTrace) export() []obs.RemoteSpan {
	if qt.tr == nil {
		return nil
	}
	qt.tr.End(qt.root)
	return qt.tr.Export()
}

// dispatch decodes one request frame, runs admission control for it and,
// when admitted, hands it by value to the idle query goroutine (waiting out
// its last Done write), or starts one when none is idle, so the session
// keeps reading pipelined requests. A payload that does not decode is
// admitted like any query and answered BAD_REQUEST. A request carrying a
// sampled trace context gets a server-side trace adopted before admission,
// so the admission wait is the first server span of the merged tree.
func (ss *session) dispatch(f wire.Frame) {
	kind := "select"
	var sq wire.SelectRequest
	var jq wire.JoinRequest
	var derr error
	if f.Type == wire.TypeJoin {
		kind = "join"
		jq, derr = ss.names.DecodeJoin(f.Payload)
	} else {
		sq, derr = ss.names.DecodeSelect(f.Payload)
	}
	if ss.srv.draining.Load() {
		ss.shed(f.Request, kind, wire.StatusShuttingDown, f.Trace.ID)
		return
	}
	qt := adoptTrace(f)
	admSpan := qt.tr.Begin(qt.root, "admission")
	// Admission: take a slot now, or within AdmitWait, or shed. The
	// semaphore bounds concurrent engine work; nothing queues beyond the
	// wait, so overload degrades into fast typed refusals instead of
	// unbounded latency.
	select {
	//sjlint:ignore semrelease the token goes with its query: runQuery releases it under a defer, on whichever goroutine runs the query
	case ss.srv.admit <- struct{}{}:
	default:
		if ss.srv.opts.AdmitWait <= 0 {
			qt.tr.End(admSpan)
			ss.shed(f.Request, kind, wire.StatusServerBusy, f.Trace.ID)
			return
		}
		timer := time.NewTimer(ss.srv.opts.AdmitWait)
		select {
		case ss.srv.admit <- struct{}{}:
			timer.Stop()
		case <-timer.C:
			qt.tr.End(admSpan)
			ss.shed(f.Request, kind, wire.StatusServerBusy, f.Trace.ID)
			return
		case <-ss.srv.baseCtx.Done():
			timer.Stop()
			qt.tr.End(admSpan)
			ss.shed(f.Request, kind, wire.StatusShuttingDown, f.Trace.ID)
			return
		}
	}
	qt.tr.End(admSpan)
	if !ss.srv.queryBegin() {
		<-ss.srv.admit
		ss.shed(f.Request, kind, wire.StatusShuttingDown, f.Trace.ID)
		return
	}
	ss.srv.m.activeQ.Add(1)
	q := query{request: f.Request, kind: kind, sq: sq, jq: jq, derr: derr, qt: qt}
	if ss.idle.CompareAndSwap(true, false) {
		ss.queries <- q
		return
	}
	ss.wg.Add(1)
	go ss.serveQueries(q)
}

// serveQueries runs q, then each query handed to it as the idle goroutine.
func (ss *session) serveQueries(q query) {
	defer ss.wg.Done()
	for ok := true; ok && ss.runQuery(q); {
		q, ok = <-ss.queries
	}
}

// runQuery runs one admitted query, on whichever goroutine carries it, and
// gives back its admission slot. It claims the idle place, unless another
// goroutine holds it, before it writes the Done, so a client that waits for
// the Done finds this goroutine idle; it reports whether it claimed it.
func (ss *session) runQuery(q query) (idle bool) {
	defer func() {
		ss.srv.m.activeQ.Add(-1)
		<-ss.srv.admit
		ss.srv.queryEnd()
	}()
	start := time.Now()
	var d wire.Done
	var done bool
	switch {
	case q.derr != nil:
		d, done = ss.badRequest(q.kind, wire.StatusBadRequest, q.derr.Error())
	case q.kind == "join":
		d, done = ss.runJoin(q.request, q.jq, q.qt)
	default:
		d, done = ss.runSelect(q.request, q.sq, q.qt)
	}
	idle = ss.idle.CompareAndSwap(false, true)
	if done {
		ss.writeDone(q.request, 0, d)
	}
	ss.srv.m.latency.Observe(time.Since(start).Seconds())
	return idle
}

// badRequest is the verdict on a request that failed validation.
func (ss *session) badRequest(kind string, status wire.Status, msg string) (wire.Done, bool) {
	ss.srv.m.queryOutcome(kind, status)
	return wire.Done{Status: status, Message: msg}, true
}

// refused is the verdict (STALE for a lagging replica) on a refused database.
func (ss *session) refused(kind string, err error) (wire.Done, bool) {
	status := wire.StatusInternal
	var se *wire.StatusError
	if errors.As(err, &se) {
		status = se.Status
	}
	return ss.badRequest(kind, status, err.Error())
}

// runSelect executes an admitted SELECT and streams its result.
func (ss *session) runSelect(request uint64, q wire.SelectRequest, qt queryTrace) (wire.Done, bool) {
	db, release, err := ss.srv.opts.DB()
	if err != nil {
		return ss.refused("select", err)
	}
	defer release()
	col, ok := db.Collection(q.Collection)
	if !ok {
		return ss.badRequest("select", wire.StatusNotFound, "unknown collection "+q.Collection)
	}
	op, err := q.Op.Operator()
	if err != nil {
		return ss.badRequest("select", wire.StatusBadRequest, err.Error())
	}
	strat, err := wireStrategy(q.Strategy)
	if err != nil {
		return ss.badRequest("select", wire.StatusBadRequest, err.Error())
	}
	ids, stats, err := db.SelectContext(qt.ctx(ss.srv.baseCtx), col, q.Selector, op, strat)
	return respond(ss, request, "select", wire.TypeIDs, qt, ids, stats, err)
}

// runJoin executes an admitted JOIN and streams its canonical match set.
func (ss *session) runJoin(request uint64, q wire.JoinRequest, qt queryTrace) (wire.Done, bool) {
	db, release, err := ss.srv.opts.DB()
	if err != nil {
		return ss.refused("join", err)
	}
	defer release()
	r, ok := db.Collection(q.R)
	if !ok {
		return ss.badRequest("join", wire.StatusNotFound, "unknown collection "+q.R)
	}
	s, ok := db.Collection(q.S)
	if !ok {
		return ss.badRequest("join", wire.StatusNotFound, "unknown collection "+q.S)
	}
	op, err := q.Op.Operator()
	if err != nil {
		return ss.badRequest("join", wire.StatusBadRequest, err.Error())
	}
	strat, err := wireStrategy(q.Strategy)
	if err != nil {
		return ss.badRequest("join", wire.StatusBadRequest, err.Error())
	}
	ms, stats, err := db.JoinContext(qt.ctx(ss.srv.baseCtx), r, s, op, strat)
	return respond(ss, request, "join", wire.TypeMatches, qt, ms, stats, err)
}

// respond streams an executed query's results in BatchSize frames of type
// typ and returns its Done. A failed batch write ends the response there,
// done false: the client is gone, so nothing more is encoded or sent.
func respond[T int | core.Match](ss *session, request uint64, kind string, typ uint8, qt queryTrace, results []T, stats spatialjoin.Stats, err error) (d wire.Done, done bool) {
	status := statusOf(stats, err, ss.srv.draining.Load())
	ss.srv.m.queryOutcome(kind, status)
	d = wire.Done{Status: status, Stats: wireStats(stats)}
	if err != nil {
		d.Message = err.Error()
		d.Spans = qt.export()
		return d, true
	}
	stream := qt.tr.Begin(qt.root, "stream")
	batch := ss.srv.opts.BatchSize
	frames := int64(0)
	for off := 0; off < len(results); off += batch {
		if ss.write(wire.Frame{Type: typ, Request: request}, results[off:min(off+batch, len(results))]) != nil {
			qt.tr.End(stream)
			return d, false
		}
		frames++
	}
	qt.tr.End(stream, obs.Int("frames", frames), obs.Int("results", int64(len(results))))
	d.Results = uint64(len(results))
	d.Spans = qt.export()
	return d, true
}
