package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"spatialjoin"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/server"
	"spatialjoin/internal/wire"
)

// select-served sends window selects over loopback TCP to an in-process
// server with default options. Window j queries collection j mod
// sizes.servedCollections: as with the join pairs, several independently
// built R-trees keep one tree's accidental shape from deciding the run.
const servedPool = 8192 // fits every page

type servedInputs struct {
	rects [][]geom.Rect
	wins  []geom.Rect
	want  [][]int
}

func newServedInputs(seed int64, collections, size, nWindows int) *servedInputs {
	in := &servedInputs{wins: windows(subSeed(seed, 200), nWindows)}
	for c := 0; c < collections; c++ {
		in.rects = append(in.rects, uniformRects(subSeed(seed, 201+c), size))
	}
	for j, w := range in.wins {
		in.want = append(in.want, overlapSelect(in.rects[j%collections], size, w))
	}
	return in
}

func collectionName(c int) string { return fmt.Sprintf("c%02d", c) }

// load opens a database and loads the given collections.
func (in *servedInputs) load(logged bool, collections []int) (*load, error) {
	l, err := startLoad(servedPool, logged)
	if err != nil {
		return nil, err
	}
	for _, c := range collections {
		if _, err := l.add(collectionName(c), in.rects[c]); err != nil {
			return nil, err
		}
	}
	return l, l.finish()
}

// start serves a loaded database on a loopback port and connects two
// clients: a plain one for untraced operations and one over a counting
// connection for traced ones.
func (in *servedInputs) start(db *spatialjoin.Database) (*system, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := server.New(db, server.Options{})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	shutdown := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := srv.Shutdown(ctx)
		if serr := <-served; err == nil && !errors.Is(serr, server.ErrServerClosed) {
			err = serr
		}
		return err
	}
	plain, err := wire.Dial(ln.Addr().String())
	if err != nil {
		return nil, errors.Join(err, shutdown())
	}
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, errors.Join(err, plain.Close(), shutdown())
	}
	meter := &servedMeter{conn: &countingConn{Conn: raw}}
	counted := wire.NewClient(meter.conn)

	names := make([]string, len(in.rects))
	for c := range names {
		names[c] = collectionName(c)
	}
	return &system{
		db:         db,
		kind:       "harness.select",
		traceEvery: microTraceEvery,
		cycle:      len(in.wins),
		served:     meter,
		call: func(ctx context.Context, j int) (time.Duration, spatialjoin.Stats, bool, error) {
			client, tr := plain, obs.TraceFrom(ctx)
			if tr != nil {
				client = counted
			}
			t0 := time.Now()
			res, err := client.Select(ctx, names[j%len(names)], in.wins[j], wire.Overlaps(), uint8(spatialjoin.TreeStrategy))
			lat := time.Since(t0)
			if err != nil {
				return lat, spatialjoin.Stats{}, false, err
			}
			if tr != nil {
				tr.Graft(obs.SpanFromContext(ctx), meter.conn.phases(t0))
			}
			// A shed or failed query is a failed operation, not an error
			// of the run.
			if res.Status == wire.StatusServerBusy {
				meter.shed++
			}
			work := spatialjoin.Stats{FilterEvals: res.Stats.FilterEvals, ExactEvals: res.Stats.ExactEvals,
				PageReads: res.Stats.PageReads, IndexReads: res.Stats.IndexReads}
			return lat, work, res.Status == wire.StatusOK && sameIDs(res.IDs, in.want[j]), nil
		},
		stop: func() error {
			return errors.Join(ignoreClosed(plain.Close()), ignoreClosed(counted.Close()), shutdown())
		},
	}, nil
}

func ignoreClosed(err error) error {
	if errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}

// servedMeter is what the harness observes on the client side of a served
// system: the metered connection traced operations use, and how many
// queries the server shed.
type servedMeter struct {
	conn *countingConn
	shed int64
}

// countingConn is the client side of the socket with a meter on it: bytes
// and frames in each direction, and when the last request was fully
// written, when the first byte of its response arrived and when the last
// did. The harness keeps one request in flight, so "the last request" is
// unambiguous.
type countingConn struct {
	net.Conn

	mu                    sync.Mutex
	bytes, frames         int64
	writeStart, writeDone time.Time
	firstByte, lastByte   time.Time
	awaiting              bool // a request is written and no response byte has arrived yet

	// The response-frame walker: hdr collects the current frame header,
	// skip is how much of the current payload is still to come.
	hdr  [wire.HeaderSize]byte
	hdrN int
	skip int
}

func (c *countingConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	c.mu.Lock()
	c.writeStart, c.writeDone = start, time.Now()
	c.awaiting = true
	c.bytes += int64(n)
	c.frames++ // the client writes each request frame with one Write
	c.mu.Unlock()
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := time.Now()
		c.mu.Lock()
		if c.awaiting {
			c.firstByte, c.awaiting = now, false
		}
		c.lastByte = now
		c.bytes += int64(n)
		c.walk(p[:n])
		c.mu.Unlock()
	}
	return n, err
}

// walk counts the response frames in the bytes just read: a fixed header
// whose length field says how much payload follows.
func (c *countingConn) walk(p []byte) {
	for len(p) > 0 {
		if c.skip > 0 {
			n := min(c.skip, len(p))
			c.skip -= n
			p = p[n:]
			continue
		}
		n := copy(c.hdr[c.hdrN:], p)
		c.hdrN += n
		p = p[n:]
		if c.hdrN == len(c.hdr) {
			c.frames++
			c.skip = int(binary.LittleEndian.Uint32(c.hdr[16:]))
			c.hdrN = 0
		}
	}
}

// phases renders the last request's socket phases as spans, offset from
// opStart: writing the request, waiting for the first response byte, and
// receiving the rest.
func (c *countingConn) phases(opStart time.Time) []obs.RemoteSpan {
	c.mu.Lock()
	defer c.mu.Unlock()
	span := func(name string, from, to time.Time) obs.RemoteSpan {
		return obs.RemoteSpan{Parent: -1, Name: name, Start: from.Sub(opStart), Dur: max(to.Sub(from), 1)}
	}
	return []obs.RemoteSpan{
		span("conn.write", c.writeStart, c.writeDone),
		span("conn.first_byte", c.writeDone, c.firstByte),
		span("conn.last_byte", c.firstByte, c.lastByte),
	}
}

func (c *countingConn) totals() (bytes, frames int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes, c.frames
}

func runServed(o options) (outcome, error) {
	return runServedOn(o, newServedInputs(o.seed, o.sizes.servedCollections, o.sizes.servedSize, o.sizes.servedWindows))
}

// runServedOn runs select-served on given inputs.
func runServedOn(o options, in *servedInputs) (outcome, error) {
	return runRead(o, readBench{
		name:  "select-served",
		parts: len(in.rects),
		load:  in.load,
		start: in.start,
		ledger: func(sys *system, t *tracer, into values, total counters, work spatialjoin.Stats, ops int, opNS float64) error {
			c0, _ := sys.db.Collection(collectionName(0))
			if err := storageLedger(c0, into, total, work, ops, opNS, in.wins, in.rects[0]); err != nil {
				return err
			}
			return in.servedLedger(sys, t, into, ops, opNS)
		},
	})
}
