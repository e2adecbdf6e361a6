package server_test

// Admission control and load shedding: excess queries are refused with
// typed SERVER_BUSY verdicts and the shed flag, never queued unboundedly;
// excess connections are refused with a connection-level verdict; and
// every refusal is visible in the obs counters exactly once.

import (
	"context"
	"errors"
	"testing"
	"time"

	"spatialjoin"
	"spatialjoin/internal/fault"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/server"
	"spatialjoin/internal/wire"
)

func TestAdmissionControlShedsExcessQueries(t *testing.T) {
	db, r, s := newServerDB(t, false, func(c *spatialjoin.Config) {
		c.Workers = 1
		c.Fault = &fault.Options{Seed: 4600, ReadLatency: 10 * time.Millisecond}
	})
	want, _, err := db.Join(r, s, spatialjoin.Overlaps(), spatialjoin.ScanStrategy)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DropCache(); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	_, addr := startServer(t, db, server.Options{MaxQueries: 1, Metrics: reg})
	cli := dialClient(t, addr)
	ctx := context.Background()

	// Occupy the single admission slot with a slow cold join.
	type joinReply struct {
		res wire.Result
		err error
	}
	slowCh := make(chan joinReply, 1)
	go func() {
		res, err := cli.Join(ctx, "r", "s", wire.Overlaps(), wire.StrategyTree)
		slowCh <- joinReply{res, err}
	}()
	activeQ := reg.Gauge("spatialjoin_server_active_queries", "")
	waitFor(t, "slow join admitted", func() bool { return activeQ.Value() == 1 })

	// Every query that arrives while the slot is held is shed, fast, with
	// the typed verdict — pipelined on the same connection, so the shed
	// responses also prove the session keeps reading while a query runs.
	const excess = 4
	for i := 0; i < excess; i++ {
		start := time.Now()
		res, err := cli.Join(ctx, "r", "s", wire.Overlaps(), wire.StrategyScan)
		if err != nil {
			t.Fatalf("excess query %d: %v", i, err)
		}
		if res.Status != wire.StatusServerBusy {
			t.Fatalf("excess query %d: status %s, want server_busy", i, res.Status)
		}
		if res.Flags&wire.FlagShed == 0 {
			t.Errorf("excess query %d: shed flag missing", i)
		}
		var se *wire.StatusError
		if err := res.Err(); !errors.As(err, &se) || se.Status != wire.StatusServerBusy {
			t.Errorf("excess query %d: Err() = %v, want *StatusError{server_busy}", i, err)
		}
		// Shedding must be immediate refusal, not queueing behind the
		// ~100ms slow join.
		if took := time.Since(start); took > 2*time.Second {
			t.Errorf("excess query %d: shed verdict took %v", i, took)
		}
	}

	// The admitted query is undisturbed by the shedding around it.
	reply := <-slowCh
	if reply.err != nil {
		t.Fatal(reply.err)
	}
	if reply.res.Status != wire.StatusOK {
		t.Fatalf("slow join: status %s (%s), want ok", reply.res.Status, reply.res.Message)
	}
	assertSameMatches(t, "slow join", reply.res.Matches, want)

	if got := reg.Counter("spatialjoin_server_queries_shed_total", "").Value(); got != excess {
		t.Errorf("queries_shed_total = %d, want %d", got, excess)
	}
	if got := queriesTotal(reg, "join", wire.StatusServerBusy); got != excess {
		t.Errorf("queries_total{join,server_busy} = %d, want %d", got, excess)
	}
	if got := queriesTotal(reg, "join", wire.StatusOK); got != 1 {
		t.Errorf("queries_total{join,ok} = %d, want 1", got)
	}
	// Shed queries never reach the engine, so only the admitted one is in
	// the latency histogram.
	// (The serving goroutine observes it after the client has its verdict.)
	latency := reg.Histogram("spatialjoin_server_query_seconds", "", nil)
	waitFor(t, "latency observation", func() bool { return latency.Count() >= 1 })
	if n := latency.Count(); n != 1 {
		t.Errorf("latency histogram count = %d, want 1", n)
	}

	// With the slot free the same connection is served again (cache is
	// warm now, so this is fast).
	waitFor(t, "slot released", func() bool { return activeQ.Value() == 0 })
	res, err := cli.Join(ctx, "r", "s", wire.Overlaps(), wire.StrategyScan)
	if err != nil || res.Status != wire.StatusOK {
		t.Fatalf("join after slot freed: %v, %+v", err, res)
	}
	assertSameMatches(t, "join after shed storm", res.Matches, want)
}

// TestAdmitWaitRidesOutShortBursts sets a generous AdmitWait: a query
// arriving while the slot is briefly held must wait and then execute,
// not shed.
func TestAdmitWaitRidesOutShortBursts(t *testing.T) {
	db, r, s := newServerDB(t, false, func(c *spatialjoin.Config) {
		c.Workers = 1
		c.Fault = &fault.Options{Seed: 4700, ReadLatency: 5 * time.Millisecond}
	})
	want, _, err := db.Join(r, s, spatialjoin.Overlaps(), spatialjoin.ScanStrategy)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DropCache(); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	_, addr := startServer(t, db, server.Options{
		MaxQueries: 1,
		AdmitWait:  30 * time.Second,
		Metrics:    reg,
	})
	cli := dialClient(t, addr)
	ctx := context.Background()

	type joinReply struct {
		res wire.Result
		err error
	}
	replies := make(chan joinReply, 2)
	for i := 0; i < 2; i++ {
		go func() {
			res, err := cli.Join(ctx, "r", "s", wire.Overlaps(), wire.StrategyScan)
			replies <- joinReply{res, err}
		}()
	}
	for i := 0; i < 2; i++ {
		reply := <-replies
		if reply.err != nil {
			t.Fatalf("join %d: %v", i, reply.err)
		}
		if reply.res.Status != wire.StatusOK {
			t.Fatalf("join %d: status %s, want ok (AdmitWait should absorb the burst)", i, reply.res.Status)
		}
		assertSameMatches(t, "burst join", reply.res.Matches, want)
	}
	if got := reg.Counter("spatialjoin_server_queries_shed_total", "").Value(); got != 0 {
		t.Errorf("queries_shed_total = %d, want 0", got)
	}
}

func TestConnectionLimitSheds(t *testing.T) {
	db, _, _ := newServerDB(t, false, nil)
	reg := obs.NewRegistry()
	_, addr := startServer(t, db, server.Options{MaxConns: 1, Metrics: reg})
	ctx := context.Background()

	c1 := dialClient(t, addr)
	if err := c1.Ping(ctx); err != nil {
		t.Fatal(err)
	}

	// The second connection is accepted at the TCP level, answered with a
	// single connection-level SERVER_BUSY verdict, and closed; every call
	// on it surfaces the typed status.
	c2, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	var se *wire.StatusError
	if err := c2.Ping(ctx); !errors.As(err, &se) || se.Status != wire.StatusServerBusy {
		t.Fatalf("ping on refused connection: %v, want *StatusError{server_busy}", err)
	}

	if got := reg.Counter("spatialjoin_server_connections_shed_total", "").Value(); got != 1 {
		t.Errorf("connections_shed_total = %d, want 1", got)
	}
	if got := reg.Counter("spatialjoin_server_connections_total", "").Value(); got != 2 {
		t.Errorf("connections_total = %d, want 2", got)
	}

	// The surviving session is unaffected...
	if err := c1.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	// ...and closing it frees the slot for a new connection.
	_ = c1.Close()
	activeConns := reg.Gauge("spatialjoin_server_active_connections", "")
	waitFor(t, "slot freed", func() bool { return activeConns.Value() == 0 })
	c3 := dialClient(t, addr)
	if err := c3.Ping(ctx); err != nil {
		t.Fatalf("connection after slot freed: %v", err)
	}
}
