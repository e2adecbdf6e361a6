package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"spatialjoin/internal/core"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/obs"
)

// ErrClientClosed is returned for calls on a closed Client.
var ErrClientClosed = errors.New("wire: client closed")

// Result is one query's complete response: the typed status, the streamed
// results reassembled in arrival order (the server streams them in the
// engine's canonical order), the measured work from the Done frame, and —
// for a traced call against a trace-capable server — the server's span
// summary (already grafted into the caller's trace by Select/Join; kept
// here for callers that want the raw spans).
type Result struct {
	Status  Status
	Flags   uint16
	Matches []core.Match // JOIN results
	IDs     []int        // SELECT results
	Stats   QueryStats
	Message string
	Spans   []obs.RemoteSpan
}

// Err converts the status to an error: nil for StatusOK and — because the
// results are still exact — StatusDegraded; a *StatusError otherwise.
func (r *Result) Err() error {
	switch r.Status {
	case StatusOK, StatusDegraded:
		return nil
	}
	return &StatusError{Status: r.Status, Message: r.Message}
}

// call is one in-flight request: batches accumulate until the Done frame
// signals done. A call whose signal its caller received goes back on the
// client's free list, so done is buffered to 1 and sent on, never closed.
type call struct {
	res  Result
	err  error
	done chan struct{}
}

// Client is a pipelining client for the spatial query server: any number
// of goroutines may issue Ping/Select/Join concurrently over one
// connection; requests are correlated to interleaved response frames by
// request ID. The zero value is not usable — construct with Dial or
// NewClient.
type Client struct {
	conn net.Conn

	wmu sync.Mutex // serializes frame writes
	out []byte     // under wmu: the request frame being written

	mu      sync.Mutex
	pending map[uint64]*call
	free    []*call // completed calls, for reuse by later requests
	nextID  uint64
	broken  error // set once the read loop dies; fails all future calls

	readDone chan struct{}
}

// Dial connects to a server and starts the response reader.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:     conn,
		pending:  make(map[uint64]*call),
		readDone: make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// Close tears down the connection; in-flight calls fail with
// ErrClientClosed. Safe to call twice.
func (c *Client) Close() error {
	err := c.conn.Close()
	<-c.readDone
	return err
}

// fail marks the client broken and completes every pending call with err.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.broken == nil {
		c.broken = err
	}
	calls := c.pending
	c.pending = make(map[uint64]*call)
	c.mu.Unlock()
	for _, cl := range calls {
		cl.err = err
		cl.done <- struct{}{}
	}
}

// readLoop dispatches response frames to pending calls until the
// connection dies, then fails everything outstanding.
func (c *Client) readLoop() {
	defer close(c.readDone)
	rd := NewReader(c.conn, MaxPayload)
	for {
		f, err := rd.ReadFrame()
		if err != nil {
			if errors.Is(err, net.ErrClosed) || err == io.EOF {
				err = ErrClientClosed
			}
			c.fail(err)
			return
		}
		if f.Request == 0 && f.Type == TypeDone {
			// Connection-level verdict (e.g. SERVER_BUSY at accept): the
			// server closes after sending it; surface the typed status to
			// every call on this connection.
			d, derr := DecodeDone(f.Payload)
			if derr != nil {
				c.fail(derr)
			} else {
				c.fail(&StatusError{Status: d.Status, Message: d.Message})
			}
			return
		}
		c.mu.Lock()
		cl := c.pending[f.Request]
		c.mu.Unlock()
		if cl == nil {
			continue // abandoned call (caller's context expired); drop
		}
		switch f.Type {
		case TypeMatches:
			var derr error
			cl.res.Matches, derr = DecodeMatches(cl.res.Matches, f.Payload)
			if derr != nil {
				c.fail(derr)
				return
			}
		case TypeIDs:
			var derr error
			cl.res.IDs, derr = DecodeIDs(cl.res.IDs, f.Payload)
			if derr != nil {
				c.fail(derr)
				return
			}
		case TypePong:
			c.complete(f.Request, cl, nil)
		case TypeDone:
			d, derr := DecodeDone(f.Payload)
			if derr != nil {
				c.fail(derr)
				return
			}
			cl.res.Status = d.Status
			cl.res.Flags = f.Flags
			cl.res.Stats = d.Stats
			cl.res.Message = d.Message
			cl.res.Spans = d.Spans
			var verr error
			if got := uint64(len(cl.res.Matches) + len(cl.res.IDs)); got != d.Results {
				verr = fmt.Errorf("%w: Done claims %d results, %d streamed", ErrBadPayload, d.Results, got)
			}
			c.complete(f.Request, cl, verr)
		default:
			c.fail(fmt.Errorf("%w: unexpected %#02x response", ErrBadPayload, f.Type))
			return
		}
	}
}

// complete finishes one call and unregisters it.
func (c *Client) complete(id uint64, cl *call, err error) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
	cl.err = err
	cl.done <- struct{}{}
}

// send registers a call and writes its request frame, encoding msg (see
// AppendMessage) into the client's reused buffer under the write lock. A
// non-zero flags value carrying FlagTraceContext sends the frame as
// VersionTrace with tc prefixed, propagating the caller's trace identity to
// the server.
func (c *Client) send(typ uint8, msg any, flags uint16, tc TraceContext) (*call, uint64, error) {
	c.mu.Lock()
	if c.broken != nil {
		err := c.broken
		c.mu.Unlock()
		return nil, 0, err
	}
	var cl *call
	if n := len(c.free); n > 0 {
		cl, c.free = c.free[n-1], c.free[:n-1]
	} else {
		cl = &call{done: make(chan struct{}, 1)}
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = cl
	c.mu.Unlock()

	c.wmu.Lock()
	c.out = AppendMessage(c.out[:0], Frame{Type: typ, Flags: flags, Request: id, Trace: tc}, msg)
	_, err := c.conn.Write(c.out)
	c.wmu.Unlock()
	if err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return nil, 0, err
	}
	return cl, id, nil
}

// wait blocks until the call completes or ctx expires. A completed call's
// result is copied out and the call goes back on the free list. An expired
// context abandons the call: it is never reused, so frames still on their
// way for it land in garbage.
func (c *Client) wait(ctx context.Context, cl *call, id uint64) (Result, error) {
	select {
	case <-cl.done:
		res, err := cl.res, cl.err
		*cl = call{done: cl.done}
		c.mu.Lock()
		c.free = append(c.free, cl)
		c.mu.Unlock()
		if err != nil {
			return Result{}, err
		}
		return res, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return Result{}, ctx.Err()
	}
}

// Ping round-trips an empty liveness frame.
func (c *Client) Ping(ctx context.Context) error {
	cl, id, err := c.send(TypePing, nil, 0, TraceContext{})
	if err != nil {
		return err
	}
	_, err = c.wait(ctx, cl, id)
	return err
}

// traceCall opens a client span covering one wire call when the context
// carries an obs.Trace, and returns the frame flags and trace context to
// propagate. With tracing off everything returned is zero and the request
// goes out as a plain version-1 frame — the untraced path is byte-identical
// to a client predating the extension.
func traceCall(ctx context.Context, name string) (*obs.Trace, obs.SpanID, uint16, TraceContext) {
	tr := obs.TraceFrom(ctx)
	if tr == nil {
		return nil, 0, 0, TraceContext{}
	}
	span := tr.Begin(obs.SpanFromContext(ctx), name)
	return tr, span, FlagTraceContext, TraceContext{ID: tr.ID(), Flags: TraceFlagSampled}
}

// traceDone closes the call span, grafting the server's span summary (if
// the call got a response) under it so the caller's trace renders one
// end-to-end tree.
func traceDone(tr *obs.Trace, span obs.SpanID, res *Result, err error) {
	if tr == nil {
		return
	}
	if err == nil {
		tr.Graft(span, res.Spans)
		tr.End(span,
			obs.Str("status", res.Status.Label()),
			obs.Int("results", int64(len(res.Matches)+len(res.IDs))))
		return
	}
	if err != nil {
		tr.Event(span, "error", obs.Str("error", err.Error()))
	}
	tr.End(span)
}

// Select runs a SELECT on the server. The returned result's IDs are exact
// for StatusOK and StatusDegraded; other statuses carry no results (check
// Result.Err). When ctx carries an obs.Trace, the trace's identity is
// propagated on the request frame and the server's spans are grafted back
// under a "wire.select" client span.
func (c *Client) Select(ctx context.Context, collection string, selector geom.Rect, op OpSpec, strategy uint8) (Result, error) {
	if err := checkName(collection); err != nil {
		return Result{}, err
	}
	tr, span, flags, tc := traceCall(ctx, "wire.select")
	cl, id, err := c.send(TypeSelect, SelectRequest{
		Strategy: strategy, Op: op, Collection: collection, Selector: selector,
	}, flags, tc)
	if err != nil {
		traceDone(tr, span, nil, err)
		return Result{}, err
	}
	res, err := c.wait(ctx, cl, id)
	traceDone(tr, span, &res, err)
	return res, err
}

// Join runs a JOIN on the server. The returned result's Matches are the
// engine's canonical (R, S)-sorted match set for StatusOK and
// StatusDegraded; other statuses carry no results (check Result.Err). When
// ctx carries an obs.Trace, the trace's identity is propagated on the
// request frame and the server's spans are grafted back under a
// "wire.join" client span.
func (c *Client) Join(ctx context.Context, r, s string, op OpSpec, strategy uint8) (Result, error) {
	if err := checkName(r); err != nil {
		return Result{}, err
	}
	if err := checkName(s); err != nil {
		return Result{}, err
	}
	tr, span, flags, tc := traceCall(ctx, "wire.join")
	cl, id, err := c.send(TypeJoin, JoinRequest{Strategy: strategy, Op: op, R: r, S: s}, flags, tc)
	if err != nil {
		traceDone(tr, span, nil, err)
		return Result{}, err
	}
	res, err := c.wait(ctx, cl, id)
	traceDone(tr, span, &res, err)
	return res, err
}
