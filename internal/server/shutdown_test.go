package server_test

// Graceful shutdown and goroutine hygiene: Shutdown must drain in-flight
// queries to completion (exact results over the wire), refuse new work
// with typed SHUTTING_DOWN verdicts, reject new connections, and leave
// zero goroutines behind — session loops, query goroutines, and the
// accept loop all accounted for by a runtime.NumGoroutine settle loop.

import (
	"context"
	"net"
	"testing"
	"time"

	"spatialjoin"
	"spatialjoin/internal/fault"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/server"
	"spatialjoin/internal/wire"
)

// TestShutdownDrainsInFlightAndLeaksNothing holds a join in flight by
// holding its answer at the connection, and releases it only once the idle
// client's query has been refused during the drain: what stays in flight is
// decided by the test, not by how long the join takes.
func TestShutdownDrainsInFlightAndLeaksNothing(t *testing.T) {
	before := settledGoroutines()

	db, r, s := newServerDB(t, false, func(c *spatialjoin.Config) { c.Workers = 1 })
	want, _, err := db.Join(r, s, spatialjoin.Overlaps(), spatialjoin.ScanStrategy)
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gl := &gatedListener{Listener: ln, gate: make(chan struct{}), conns: make(chan *gatedConn, 2)}
	srv := server.New(db, server.Options{Metrics: reg})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(gl) }()
	addr := ln.Addr().String()

	// A connection's first server write passes the gate and every later
	// one waits for it. The slow client spends its first on a ping, so its
	// join's answer waits; the idle client sends nothing before the drain,
	// so the verdict refusing its query passes.
	ctx := context.Background()
	slow := dialClient(t, addr)
	if err := slow.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	slowConn := <-gl.conns
	idle := dialClient(t, addr)
	<-gl.conns
	activeConns := reg.Gauge("spatialjoin_server_active_connections", "")
	waitFor(t, "both sessions open", func() bool { return activeConns.Value() == 2 })

	type joinReply struct {
		res wire.Result
		err error
	}
	slowCh := make(chan joinReply, 1)
	go func() {
		res, err := slow.Join(ctx, "r", "s", wire.Overlaps(), wire.StrategyTree)
		slowCh <- joinReply{res, err}
	}()
	waitFor(t, "the join's answer at the gate", func() bool {
		writes, _ := slowConn.counts()
		return writes > 1
	})
	activeQ := reg.Gauge("spatialjoin_server_active_queries", "")
	if n := activeQ.Value(); n != 1 {
		t.Fatalf("active_queries = %d with the join held, want 1", n)
	}

	shutCh := make(chan error, 1)
	go func() { shutCh <- srv.Shutdown(context.Background()) }()

	// Shutdown sets the draining flag before it closes the listeners, and
	// Serve returns once its listener is closed.
	if err := <-serveDone; err != server.ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}

	// New work on a surviving session is refused with a typed verdict and
	// the shed flag — it never touched the engine.
	res, err := idle.Join(ctx, "r", "s", wire.Overlaps(), wire.StrategyScan)
	if err != nil {
		t.Fatalf("query during drain: %v", err)
	}
	if res.Status != wire.StatusShuttingDown || res.Flags&wire.FlagShed == 0 {
		t.Fatalf("query during drain: status %s flags %#x, want shutting_down+shed", res.Status, res.Flags)
	}

	// The in-flight query drains to a complete, exact answer once released.
	close(gl.gate)
	reply := <-slowCh
	if reply.err != nil {
		t.Fatalf("in-flight join during drain: %v", reply.err)
	}
	if reply.res.Status != wire.StatusOK {
		t.Fatalf("in-flight join: status %s (%s), want ok", reply.res.Status, reply.res.Message)
	}
	assertSameMatches(t, "drained join", reply.res.Matches, want)

	if err := <-shutCh; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if n := activeConns.Value(); n != 0 {
		t.Errorf("active_connections = %d after shutdown, want 0", n)
	}
	if n := activeQ.Value(); n != 0 {
		t.Errorf("active_queries = %d after shutdown, want 0", n)
	}

	// Second shutdown is a harmless no-op.
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Errorf("repeated Shutdown: %v", err)
	}

	// The server closed both client connections, so their read loops are
	// gone too; everything the test started must have unwound.
	_ = slow.Close()
	_ = idle.Close()
	if after := settledGoroutines(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after shutdown", before, after)
	}
}

// TestShutdownDeadlineForcesExit wedges a query behind a long device
// latency and shuts down with an already-expiring context: Shutdown must
// return the context error promptly — cancelling the in-flight engine
// work rather than waiting out the full query — and still leave no
// goroutines behind.
func TestShutdownDeadlineForcesExit(t *testing.T) {
	before := settledGoroutines()

	db, _, _ := newServerDB(t, false, func(c *spatialjoin.Config) {
		c.Workers = 1
		c.Fault = &fault.Options{Seed: 4500, ReadLatency: 20 * time.Millisecond}
	})
	if err := db.DropCache(); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Options{Metrics: reg})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	cli := dialClient(t, ln.Addr().String())
	go func() {
		// The reply races the forced connection close; either a typed
		// non-OK verdict or a broken connection is acceptable.
		_, _ = cli.Join(context.Background(), "r", "s", wire.Overlaps(), wire.StrategyTree)
	}()
	activeQ := reg.Gauge("spatialjoin_server_active_queries", "")
	waitFor(t, "join admitted", func() bool { return activeQ.Value() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
	// The wedged query would run for seconds; a forced exit must not.
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("forced shutdown took %v", took)
	}
	if err := <-serveDone; err != server.ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}

	_ = cli.Close()
	if after := settledGoroutines(); after > before {
		t.Errorf("goroutines leaked: %d before, %d after forced shutdown", before, after)
	}
}
