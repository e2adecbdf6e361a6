// Package server is the network serving layer of the spatial query engine:
// a connection-handling server speaking the internal/wire framed protocol,
// with per-session contexts, pipelined query execution, graceful shutdown,
// and admission control that sheds load with typed SERVER_BUSY verdicts
// instead of queueing unboundedly.
// A session keeps one idle query goroutine for its next query and starts
// another only when none is idle, so pipelined queries still overlap.
//
// The server executes read-only queries (SELECT and JOIN) against one
// *spatialjoin.Database, whose read paths are safe for concurrent use; the
// dataset is loaded before Serve starts. Backpressure derives from the
// engine's existing hooks: Config.QueryTimeout bounds every query and
// surfaces as a TIMEOUT status, degradation (Stats.Downgrades) surfaces as
// DEGRADED with exact results, and the admission semaphore bounds
// concurrent engine work. Every accept/active/shed/latency figure is
// registered in the obs registry under the spatialjoin_server_* families.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spatialjoin"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/wal"
	"spatialjoin/internal/wire"
)

// ErrServerClosed is returned by Serve after Shutdown begins.
var ErrServerClosed = errors.New("server: closed")

// Options configures the server's admission control and streaming.
type Options struct {
	// MaxConns bounds concurrent sessions. A connection beyond the bound
	// receives one Done frame (request ID 0, SERVER_BUSY, FlagShed) and is
	// closed. 0 means DefaultMaxConns.
	MaxConns int
	// MaxQueries bounds concurrently executing queries across all
	// sessions — the admission semaphore in front of the engine. A query
	// that cannot take a slot within AdmitWait is shed with SERVER_BUSY.
	// 0 means 4 × GOMAXPROCS.
	MaxQueries int
	// AdmitWait is how long an arriving query may wait for an admission
	// slot before being shed. 0 sheds immediately — the strictest, most
	// predictable policy, and the default.
	AdmitWait time.Duration
	// BatchSize is the number of results streamed per frame. 0 means
	// DefaultBatchSize.
	BatchSize int
	// Metrics, when non-nil, registers the server's counter families.
	// All instruments are nil-safe, so a nil registry costs only the
	// no-op calls.
	Metrics *obs.Registry
	// Repl, when non-nil, serves replication streams: REPL_TAIL and
	// SNAP_DELTA frames dispatch to it. A server without one answers those
	// frames with BAD_REQUEST.
	Repl ReplStreamer
	// DB, when non-nil, resolves the database for each query, with a
	// release the server invokes when the query finishes — a replica
	// server acquires its follower's current database this way, and a
	// *wire.StatusError from the resolver (STALE, for a replica beyond its
	// lag policy) becomes the query's typed verdict. Nil means every query
	// runs against the fixed database passed to New.
	DB func() (*spatialjoin.Database, func(), error)
}

// ReplStreamer is the primary-side replication source a server can front
// (repl.Source implements it). StreamTail ships WAL chunks from a record
// boundary until the context or connection ends; StreamSnap ships one
// snapshot or delta stream to completion and reports whether it was full.
// A snapshot chunk's Data is valid only until send returns (the source
// reuses one buffer per stream); the server's send encodes the chunk
// before it returns.
type ReplStreamer interface {
	StreamTail(ctx context.Context, from wal.LSN, send func(wire.WALChunk) error) error
	StreamSnap(ctx context.Context, since wal.LSN, send func(wire.SnapChunk) error) (bool, error)
}

// Defaults for Options zero values.
const (
	DefaultMaxConns  = 256
	DefaultBatchSize = 512
)

// metrics holds the server's obs instruments; every field is nil-safe.
type metrics struct {
	accepted    *obs.Counter
	connShed    *obs.Counter
	activeConns *obs.Gauge
	activeQ     *obs.Gauge
	framesIn    *obs.Counter
	framesOut   *obs.Counter
	shed        *obs.Counter
	latency     *obs.Histogram
	replTails   *obs.Counter
	replSnaps   *obs.Counter
	reg         *obs.Registry
}

// serverLatencyBuckets bound the spatialjoin_server_query_seconds
// histogram: sub-millisecond warm selects through multi-second degraded
// scans.
var serverLatencyBuckets = []float64{
	1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1, 5, 30,
}

// newMetrics registers the server families. The registry is get-or-create
// keyed by name, so tests can read the same counters back.
func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		reg: reg,
		accepted: reg.Counter("spatialjoin_server_connections_total",
			"Connections accepted, including ones shed at the connection limit."),
		connShed: reg.Counter("spatialjoin_server_connections_shed_total",
			"Connections rejected with SERVER_BUSY at the connection limit."),
		activeConns: reg.Gauge("spatialjoin_server_active_connections",
			"Sessions currently open."),
		activeQ: reg.Gauge("spatialjoin_server_active_queries",
			"Queries currently holding an admission slot."),
		framesIn: reg.Counter("spatialjoin_server_frames_read_total",
			"Protocol frames read from clients."),
		framesOut: reg.Counter("spatialjoin_server_frames_written_total",
			"Protocol frames written to clients."),
		shed: reg.Counter("spatialjoin_server_queries_shed_total",
			"Queries shed by admission control or during drain, without touching the engine."),
		latency: reg.Histogram("spatialjoin_server_query_seconds",
			"Admitted query wall time in seconds, accept-to-Done.", serverLatencyBuckets),
		replTails: reg.Counter("spatialjoin_server_repl_tail_streams_total",
			"WAL tail streams opened by replicas."),
		replSnaps: reg.Counter("spatialjoin_server_repl_snapshot_streams_total",
			"Snapshot and delta streams opened by replicas."),
	}
}

// queryOutcome feeds the per-outcome query counter.
func (m *metrics) queryOutcome(kind string, status wire.Status) {
	m.reg.Counter("spatialjoin_server_queries_total",
		"Queries finished, by kind and typed status.",
		obs.L("kind", kind), obs.L("status", status.Label())).Inc()
}

// Server serves the wire protocol over one database.
type Server struct {
	opts Options
	m    *metrics

	baseCtx context.Context
	cancel  context.CancelFunc

	admit chan struct{} // admission semaphore: one token per running query

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	sessions  map[*session]struct{}
	draining  atomic.Bool

	sessionWG sync.WaitGroup // one per live session loop

	// qmu guards the in-flight query count; queryBegin refuses once
	// draining is set, so after Shutdown samples a zero count no new query
	// can slip in (both sides hold qmu for the check-and-update).
	qmu      sync.Mutex
	inflight int
	idle     chan struct{} // closed when inflight drains to 0 during shutdown
}

// queryBegin records an admitted query; it refuses (and the caller sheds
// with SHUTTING_DOWN) once the server is draining.
func (s *Server) queryBegin() bool {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.inflight++
	return true
}

// queryEnd retires an in-flight query and signals a draining Shutdown when
// the last one finishes.
func (s *Server) queryEnd() {
	s.qmu.Lock()
	s.inflight--
	if s.inflight == 0 && s.idle != nil {
		close(s.idle)
		s.idle = nil
	}
	s.qmu.Unlock()
}

// New builds a server over db. The database's read paths must stay
// read-only for the server's lifetime (no concurrent Inserts). db may be
// nil when Options.DB resolves the database per query instead (a replica
// server fronting a Follower).
func New(db *spatialjoin.Database, opts Options) *Server {
	if opts.MaxConns <= 0 {
		opts.MaxConns = DefaultMaxConns
	}
	if opts.MaxQueries <= 0 {
		opts.MaxQueries = 4 * runtime.GOMAXPROCS(0)
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = DefaultBatchSize
	}
	if opts.BatchSize > wire.MaxMatchesPerFrame {
		opts.BatchSize = wire.MaxMatchesPerFrame
	}
	if opts.DB == nil {
		opts.DB = func() (*spatialjoin.Database, func(), error) {
			return db, func() {}, nil
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		opts:      opts,
		m:         newMetrics(opts.Metrics),
		baseCtx:   ctx,
		cancel:    cancel,
		admit:     make(chan struct{}, opts.MaxQueries),
		listeners: make(map[net.Listener]struct{}),
		sessions:  make(map[*session]struct{}),
	}
}

// Serve accepts connections on ln until Shutdown. It returns
// ErrServerClosed after a shutdown, or the first fatal Accept error.
// Multiple Serve calls on different listeners are allowed.
func (s *Server) Serve(ln net.Listener) error {
	if s.draining.Load() {
		return ErrServerClosed
	}
	s.mu.Lock()
	s.listeners[ln] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, ln)
		s.mu.Unlock()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return ErrServerClosed
			}
			return err
		}
		s.m.accepted.Inc()
		s.mu.Lock()
		drain := s.draining.Load()
		over := !drain && len(s.sessions) >= s.opts.MaxConns
		var ss *session
		if !drain && !over {
			ss = newSession(s, conn)
			s.sessions[ss] = struct{}{}
			s.sessionWG.Add(1)
		}
		s.mu.Unlock()
		if drain {
			s.refuse(conn, wire.StatusShuttingDown)
			continue
		}
		if over {
			s.m.connShed.Inc()
			s.refuse(conn, wire.StatusServerBusy)
			continue
		}
		s.m.activeConns.Add(1)
		go ss.run()
	}
}

// refuse sends a connection-level Done verdict (request ID 0) and closes.
func (s *Server) refuse(conn net.Conn, status wire.Status) {
	_ = conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	err := wire.WriteFrame(conn, wire.Frame{
		Type:    wire.TypeDone,
		Flags:   wire.FlagShed,
		Payload: wire.EncodeDone(wire.Done{Status: status, Message: "connection refused: " + status.String()}),
	})
	if err == nil {
		s.m.framesOut.Inc()
	}
	_ = conn.Close()
}

// removeSession drops a finished session from the registry.
func (s *Server) removeSession(ss *session) {
	s.mu.Lock()
	delete(s.sessions, ss)
	s.mu.Unlock()
	s.m.activeConns.Add(-1)
	s.sessionWG.Done()
}

// Shutdown drains the server: listeners close, new connections and new
// queries are refused with SHUTTING_DOWN, in-flight queries run to
// completion and stream their results, then every session's connection is
// closed. If ctx expires first, in-flight queries are cancelled (their
// sessions answer SHUTTING_DOWN / TIMEOUT as the engine surfaces the
// cancellation) and connections are closed immediately; Shutdown still
// waits for the session loops to unwind before returning ctx's error, so
// no goroutine outlives it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	for ln := range s.listeners {
		_ = ln.Close()
	}
	s.mu.Unlock()

	s.qmu.Lock()
	drained := make(chan struct{})
	if s.inflight == 0 {
		close(drained)
	} else {
		s.idle = drained
	}
	s.qmu.Unlock()

	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.cancel() // abort in-flight engine work; sessions still answer
	}

	// In-flight work is done (or aborted): close every session's
	// connection to unblock its read loop, then wait for the loops —
	// each session loop waits for its own query goroutines first, so
	// nothing outlives Shutdown.
	s.mu.Lock()
	for ss := range s.sessions {
		_ = ss.conn.Close()
	}
	s.mu.Unlock()
	s.sessionWG.Wait()
	s.cancel()
	return err
}

// statusOf maps an engine verdict to the wire status.
func statusOf(stats spatialjoin.Stats, err error, draining bool) wire.Status {
	switch {
	case err == nil && stats.Downgrades > 0:
		return wire.StatusDegraded
	case err == nil:
		return wire.StatusOK
	case errors.Is(err, context.DeadlineExceeded):
		return wire.StatusTimeout
	case errors.Is(err, context.Canceled):
		if draining {
			return wire.StatusShuttingDown
		}
		return wire.StatusTimeout
	default:
		return wire.StatusInternal
	}
}

// wireStrategy maps the protocol strategy byte onto the engine's, or fails
// for an unknown code.
func wireStrategy(b uint8) (spatialjoin.Strategy, error) {
	switch b {
	case wire.StrategyTree:
		return spatialjoin.TreeStrategy, nil
	case wire.StrategyScan:
		return spatialjoin.ScanStrategy, nil
	case wire.StrategyIndex:
		return spatialjoin.IndexStrategy, nil
	default:
		return 0, fmt.Errorf("unknown strategy code %d", b)
	}
}

// wireStats projects the engine's measured work onto the wire shape.
func wireStats(s spatialjoin.Stats) wire.QueryStats {
	return wire.QueryStats{
		FilterEvals: s.FilterEvals,
		ExactEvals:  s.ExactEvals,
		PageReads:   s.PageReads,
		IndexReads:  s.IndexReads,
		Downgrades:  s.Downgrades,
	}
}
