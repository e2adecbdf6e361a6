package server_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"spatialjoin"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/server"
	"spatialjoin/internal/wire"
)

// raceDetector reports whether the test binary was built with -race, read
// from its build settings (sjlint type-checks every file of a package
// together, so a build-tagged constant is not an option).
func raceDetector() bool {
	bi, _ := debug.ReadBuildInfo()
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestServedSelectAllocations pins what one served select allocates on both
// sides of the loopback socket: the result's IDs (the client reuses its
// calls) and the engine's answer. The session runs each query on the
// goroutine it keeps idle, and the engine copies the selector instead of
// boxing it. Frames are read into and written from per-connection
// buffers, so the count does not grow with the frames a query takes; the
// session interns collection names, so a name longer than one byte (which
// a string conversion does not get for free) costs what a one-byte one
// does; and a status label is a constant. The collector is off while the
// count runs, so no collection empties the engine's pools
// mid-measurement. Under the race detector sync.Pool drops a quarter of
// what is put back, so the test skips there.
func TestServedSelectAllocations(t *testing.T) {
	if raceDetector() {
		t.Skip("sync.Pool drops items under the race detector")
	}
	db, _, _ := newServerDB(t, false, func(cfg *spatialjoin.Config) { cfg.BufferPages = 1024 })
	rs, _, _ := serverWorkload()
	named, err := db.CreateCollection("rects")
	if err != nil {
		t.Fatal(err)
	}
	for _, rect := range rs {
		if _, err := named.Insert(rect, ""); err != nil {
			t.Fatal(err)
		}
	}
	_, addr := startServer(t, db, server.Options{})
	c := dialClient(t, addr)
	ctx := context.Background()
	window := geom.NewRect(100, 100, 300, 300)
	sel := func(name string) func() {
		return func() {
			res, err := c.Select(ctx, name, window, wire.Overlaps(), wire.StrategyTree)
			if err != nil || res.Status != wire.StatusOK || len(res.IDs) == 0 {
				t.Fatalf("select %q: %v, %+v", name, err, res)
			}
		}
	}
	sel("r")()
	sel("rects")()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	one := testing.AllocsPerRun(500, sel("r"))
	multi := testing.AllocsPerRun(500, sel("rects"))
	t.Logf("served select: %.2f allocations (one-byte name), %.2f (five-byte name)", one, multi)
	if multi != one {
		t.Errorf("served select of a five-byte name: %.2f allocations, one-byte name %.2f", multi, one)
	}
	const ceiling = 2.2 // 2.00 measured, plus 10 %
	if one > ceiling {
		t.Errorf("served select: %.2f allocations, want <= %g", one, ceiling)
	}
}

// gatedListener wraps each accepted connection in a gatedConn that holds
// every Write after the first until gate closes.
type gatedListener struct {
	net.Listener
	gate  chan struct{}
	conns chan *gatedConn
}

// serveGated serves db through a new gatedListener on an ephemeral loopback
// port, and registers a cleanup that shuts the server down and asserts
// Serve exited cleanly.
func serveGated(t *testing.T, db *spatialjoin.Database, opts server.Options) *gatedListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gl := &gatedListener{Listener: ln, gate: make(chan struct{}), conns: make(chan *gatedConn, 2)}
	srv := server.New(db, opts)
	served := make(chan error, 1)
	go func() { served <- srv.Serve(gl) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-served; err != nil && err != server.ErrServerClosed {
			t.Errorf("Serve: %v", err)
		}
	})
	return gl
}

func (l *gatedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	gc := &gatedConn{Conn: conn, gate: l.gate}
	l.conns <- gc
	return gc, nil
}

// gatedConn counts the server's Write calls and notes the first that
// failed.
type gatedConn struct {
	net.Conn
	gate <-chan struct{}

	mu       sync.Mutex
	writes   int
	failedAt int // 1-based index of the first failed Write; 0 if none
}

func (c *gatedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	n := c.writes
	c.mu.Unlock()
	if n > 1 {
		<-c.gate
	}
	k, err := c.Conn.Write(p)
	if err != nil {
		c.mu.Lock()
		if c.failedAt == 0 {
			c.failedAt = n
		}
		c.mu.Unlock()
	}
	return k, err
}

func (c *gatedConn) counts() (writes, failedAt int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes, c.failedAt
}

// TestStreamStopsAtFirstFailedWrite streams a join one match per frame to
// a client that hangs up after the first batch. The server must stop at its
// first failed write — encode and attempt nothing more, not even the Done
// verdict — and the query goroutine must exit; the server keeps serving.
func TestStreamStopsAtFirstFailedWrite(t *testing.T) {
	db, r, s := newServerDB(t, false, nil)
	want, _, err := db.Join(r, s, spatialjoin.Overlaps(), spatialjoin.TreeStrategy)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 16 {
		t.Fatalf("workload join has %d matches; the test needs a long stream", len(want))
	}
	gl := serveGated(t, db, server.Options{BatchSize: 1})
	base := settledGoroutines()

	raw, err := net.Dial("tcp", gl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	p, err := wire.EncodeJoin(wire.JoinRequest{Strategy: wire.StrategyTree, Op: wire.Overlaps(), R: "r", S: "s"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(wire.AppendFrame(nil, wire.Frame{Type: wire.TypeJoin, Request: 1, Payload: p})); err != nil {
		t.Fatal(err)
	}
	f, err := wire.ReadFrame(raw, wire.MaxPayload)
	if err != nil || f.Type != wire.TypeMatches {
		t.Fatalf("first response frame: %+v, %v", f, err)
	}
	// Linger 0 resets the connection on close, so the server's next writes
	// fail at once instead of after a FIN and a reset.
	_ = raw.(*net.TCPConn).SetLinger(0)
	_ = raw.Close()
	close(gl.gate)
	conn := <-gl.conns

	if n := settledGoroutines(); n > base {
		t.Fatalf("%d goroutines after the client left, %d before it came: the query goroutine did not exit", n, base)
	}
	writes, failedAt := conn.counts()
	t.Logf("%d writes for a stream of %d frames plus Done; the first failure was write %d", writes, len(want), failedAt)
	if failedAt == 0 {
		t.Fatal("no write failed after the client hung up")
	}
	if writes != failedAt {
		t.Errorf("%d writes attempted after the first failed one", writes-failedAt)
	}

	c := dialClient(t, gl.Addr().String())
	res, err := c.Join(context.Background(), "r", "s", wire.Overlaps(), wire.StrategyTree)
	if err != nil || res.Status != wire.StatusOK {
		t.Fatalf("join after the hang-up: %v, %+v", err, res)
	}
	assertSameMatches(t, "join after the hang-up", res.Matches, want)
}

// TestAbandonedCallIsNeverReused abandons a select whose answer the server
// holds at the gate, releases the answer, and then runs 50 selects on the
// same client: the client reuses completed calls, and each select must
// return exactly its own IDs, so the abandoned call, whose late frames
// still arrive, must never be handed to a later request. A call in flight
// when its client closes must fail with ErrClientClosed.
func TestAbandonedCallIsNeverReused(t *testing.T) {
	db, r, _ := newServerDB(t, false, nil)
	_, _, world := serverWorkload()
	want := func(window geom.Rect) []int {
		ids, _, err := db.Select(r, window, spatialjoin.Overlaps(), spatialjoin.TreeStrategy)
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(ids)
		return ids
	}
	// held starts a select of the whole world on a new client of a new
	// gated server, once a ping has taken the connection's one ungated
	// write, and returns when the server's answer waits at the gate.
	held := func(ctx context.Context) (*wire.Client, *gatedListener, chan error) {
		gl := serveGated(t, db, server.Options{})
		c := dialClient(t, gl.Addr().String())
		if err := c.Ping(context.Background()); err != nil {
			t.Fatal(err)
		}
		conn := <-gl.conns
		done := make(chan error, 1)
		go func() {
			_, err := c.Select(ctx, "r", world, wire.Overlaps(), wire.StrategyTree)
			done <- err
		}()
		waitFor(t, "the select's answer at the gate", func() bool {
			writes, _ := conn.counts()
			return writes > 1
		})
		return c, gl, done
	}

	ctx, cancel := context.WithCancel(context.Background())
	c, gl, done := held(ctx)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned select: %v, want %v", err, context.Canceled)
	}
	close(gl.gate)
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 50; i++ {
		x, y := rng.Float64()*500, rng.Float64()*500
		window := geom.NewRect(x, y, x+20+rng.Float64()*80, y+20+rng.Float64()*80)
		res, err := c.Select(context.Background(), "r", window, wire.Overlaps(), wire.StrategyTree)
		if err != nil || res.Status != wire.StatusOK {
			t.Fatalf("select %d: %v, %+v", i, err, res)
		}
		slices.Sort(res.IDs)
		if want := want(window); !slices.Equal(res.IDs, want) {
			t.Fatalf("select %d of %v: IDs %v, want %v", i, window, res.IDs, want)
		}
	}

	c, gl, done = held(context.Background())
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; !errors.Is(err, wire.ErrClientClosed) {
		t.Errorf("select in flight at Close: %v, want %v", err, wire.ErrClientClosed)
	}
	close(gl.gate)
}

// queryGoroutines returns the IDs of the goroutines in a session's query
// loop, read from a dump of every goroutine's stack.
func queryGoroutines(buf []byte) []int {
	var ids []int
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "(*session).serveQueries") {
			var id int
			if _, err := fmt.Sscanf(g, "goroutine %d", &id); err == nil {
				ids = append(ids, id)
			}
		}
	}
	return ids
}

// TestSessionKeepsOneIdleQueryGoroutine checks the session's query
// goroutines. Pipelined selects held at the gate all run at once, each on
// its own goroutine, and once released they leave at most one idle. Then
// 500 selects, each sent after the last one's answer, all run on that idle
// goroutine: no dump of the goroutines, taken after each answer, shows
// another. After Close and Shutdown the goroutine count settles to what it
// was before the server started.
func TestSessionKeepsOneIdleQueryGoroutine(t *testing.T) {
	db, _, _ := newServerDB(t, false, nil)
	_, _, world := serverWorkload()
	base := settledGoroutines()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gl := &gatedListener{Listener: ln, gate: make(chan struct{}), conns: make(chan *gatedConn, 2)}
	srv := server.New(db, server.Options{MaxQueries: 8})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(gl) }()
	c, err := wire.Dial(gl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	<-gl.conns
	buf := make([]byte, 1<<20)

	const k = 4
	answers := make(chan error, k)
	for i := 0; i < k; i++ {
		go func() {
			res, err := c.Select(ctx, "r", world, wire.Overlaps(), wire.StrategyTree)
			if err == nil && res.Status != wire.StatusOK {
				err = fmt.Errorf("status %v", res.Status)
			}
			answers <- err
		}()
	}
	waitFor(t, fmt.Sprintf("%d query goroutines at once", k), func() bool { return len(queryGoroutines(buf)) == k })
	close(gl.gate)
	for i := 0; i < k; i++ {
		if err := <-answers; err != nil {
			t.Fatalf("pipelined select: %v", err)
		}
	}
	waitFor(t, "at most one idle query goroutine", func() bool { return len(queryGoroutines(buf)) <= 1 })

	rng := rand.New(rand.NewSource(51))
	seen := map[int]bool{}
	for i := 0; i < 500; i++ {
		x, y := rng.Float64()*500, rng.Float64()*500
		window := geom.NewRect(x, y, x+20+rng.Float64()*80, y+20+rng.Float64()*80)
		res, err := c.Select(ctx, "r", window, wire.Overlaps(), wire.StrategyTree)
		if err != nil || res.Status != wire.StatusOK {
			t.Fatalf("select %d: %v, %+v", i, err, res)
		}
		for _, id := range queryGoroutines(buf) {
			seen[id] = true
		}
	}
	if len(seen) != 1 {
		t.Errorf("500 sequential selects ran on query goroutines %v, want one", seen)
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-served; err != server.ErrServerClosed {
		t.Fatalf("Serve: %v", err)
	}
	if n := settledGoroutines(); n > base {
		t.Errorf("%d goroutines after Close and Shutdown, %d before the server started", n, base)
	}
}
