package obs

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// RecKind classifies one flight-recorder event.
type RecKind uint8

// Event kinds. The recorder stores only fixed-size integers — kinds and
// codes map to names at dump time, never on the recording path.
const (
	// RecQueryStart: a query entered the engine. Code: query kind
	// (RecCodeSelect/RecCodeJoin). Trace: the query's trace ID (0 when
	// untraced). A: strategy code.
	RecQueryStart RecKind = 1 + iota
	// RecQueryFinish: a query left the engine. Code: outcome
	// (RecCodeOK..RecCodeError). A: latency in nanoseconds. B: page reads.
	RecQueryFinish
	// RecSlowQuery: a finished query exceeded the configured slow-query
	// threshold. Code: outcome. A: latency in nanoseconds. B: threshold in
	// nanoseconds.
	RecSlowQuery
	// RecCheckpointBegin: a fuzzy checkpoint started. A: begin LSN.
	RecCheckpointBegin
	// RecCheckpointEnd: a fuzzy checkpoint completed. A: pages flushed.
	// B: the log's scan floor after it — the LSN below which no recovery
	// or tail reader reads. The duration is the distance to the begin
	// event's timestamp.
	RecCheckpointEnd
	// RecReplState: the replication follower changed state. Code: the new
	// state (RecCodeSeeding..RecCodeStalled). A: the previous state code.
	RecReplState
	// RecReplGone: the primary answered GONE — the WAL tail the follower
	// asked for was truncated away; a delta resync follows. A: the LSN the
	// follower asked from.
	RecReplGone
	// RecReplStale: a read was refused under the staleness bound. A: lag
	// in bytes. B: lag in nanoseconds.
	RecReplStale
	// RecFaultRetry: the buffer pool retried a physical page transfer
	// after a transient fault. Code: RecCodeRead or RecCodeWrite. A: file
	// ID. B: page number.
	RecFaultRetry
	// RecAdmissionShed: the server refused a query without executing it.
	// Code: RecCodeBusy or RecCodeShuttingDown. Trace: the propagated
	// trace ID, when the shed request carried one.
	RecAdmissionShed
	// RecLogSegmentDrop: a log segment wholly below the scan floor was given
	// back to the device. A: its file ID. B: the pages it held.
	RecLogSegmentDrop
)

// String names the kind for dumps.
func (k RecKind) String() string {
	switch k {
	case RecQueryStart:
		return "query_start"
	case RecQueryFinish:
		return "query_finish"
	case RecSlowQuery:
		return "slow_query"
	case RecCheckpointBegin:
		return "checkpoint_begin"
	case RecCheckpointEnd:
		return "checkpoint_end"
	case RecReplState:
		return "repl_state"
	case RecReplGone:
		return "repl_gone"
	case RecReplStale:
		return "repl_stale"
	case RecFaultRetry:
		return "fault_retry"
	case RecAdmissionShed:
		return "admission_shed"
	case RecLogSegmentDrop:
		return "log_segment_drop"
	default:
		return fmt.Sprintf("kind_%d", uint8(k))
	}
}

// Codes, interpreted per kind (see the kind constants).
const (
	// Query kinds (RecQueryStart).
	RecCodeSelect uint8 = 0
	RecCodeJoin   uint8 = 1
	// Outcomes (RecQueryFinish, RecSlowQuery).
	RecCodeOK       uint8 = 0
	RecCodeDegraded uint8 = 1
	RecCodeTimeout  uint8 = 2
	RecCodeError    uint8 = 3
	// Follower states (RecReplState), matching repl's state machine order.
	RecCodeSeeding    uint8 = 0
	RecCodeCatchingUp uint8 = 1
	RecCodeStreaming  uint8 = 2
	RecCodeStalled    uint8 = 3
	// Transfer direction (RecFaultRetry).
	RecCodeRead  uint8 = 0
	RecCodeWrite uint8 = 1
	// Shed reasons (RecAdmissionShed).
	RecCodeBusy         uint8 = 0
	RecCodeShuttingDown uint8 = 1
)

// CodeLabel renders a code under its kind's namespace for dumps; unknown
// combinations render numerically rather than failing.
func CodeLabel(k RecKind, c uint8) string {
	type kc struct {
		k RecKind
		c uint8
	}
	labels := map[kc]string{
		{RecQueryStart, RecCodeSelect}:          "select",
		{RecQueryStart, RecCodeJoin}:            "join",
		{RecReplState, RecCodeSeeding}:          "seeding",
		{RecReplState, RecCodeCatchingUp}:       "catching_up",
		{RecReplState, RecCodeStreaming}:        "streaming",
		{RecReplState, RecCodeStalled}:          "stalled",
		{RecFaultRetry, RecCodeRead}:            "read",
		{RecFaultRetry, RecCodeWrite}:           "write",
		{RecAdmissionShed, RecCodeBusy}:         "server_busy",
		{RecAdmissionShed, RecCodeShuttingDown}: "shutting_down",
	}
	outcomes := map[uint8]string{
		RecCodeOK: "ok", RecCodeDegraded: "degraded",
		RecCodeTimeout: "timeout", RecCodeError: "error",
	}
	if k == RecQueryFinish || k == RecSlowQuery {
		if s, ok := outcomes[c]; ok {
			return s
		}
	}
	if s, ok := labels[kc{k, c}]; ok {
		return s
	}
	return fmt.Sprintf("%d", c)
}

// RecEvent is one flight-recorder entry: fixed-size integers only, so
// recording never allocates and a dump never races string interiors. Trace
// carries the query's trace ID where one applies (0 otherwise), which is
// how post-incident dumps correlate with client-side span trees. A and B
// are kind-specific payloads (see the kind constants).
type RecEvent struct {
	Seq   uint64
	Time  int64 // UnixNano
	Kind  RecKind
	Code  uint8
	Trace uint64
	A, B  int64
}

// recSlot is one ring entry. Every field is atomic. A writer claims the
// slot by setting seq to its own with recBusy, stores the payload and then
// clears recBusy, so a reader that sees the same published seq before and
// after reading the payload got a consistent event, and skips anything else.
type recSlot struct {
	seq   atomic.Uint64 // the event's Seq, with recBusy while being written
	time  atomic.Int64
	kc    atomic.Uint32 // Kind<<8 | Code
	trace atomic.Uint64
	a, b  atomic.Int64
}

const recBusy = 1 << 63

// Recorder is the always-on flight recorder: a fixed-size lock-free ring
// of structured events. Record allocates nothing (a counter increment, a
// compare-and-swap and six atomic stores), so it can stay armed in
// production at all times; readers snapshot whatever survives in the ring,
// skipping slots being written. A slot keeps the newest event recorded
// into it. Nil-safe throughout.
type Recorder struct {
	mask  uint64
	next  atomic.Uint64
	slots []recSlot
}

// NewRecorder returns a recorder holding the most recent `size` events
// (rounded up to a power of two, minimum 16).
func NewRecorder(size int) *Recorder {
	n := 16
	for n < size {
		n <<= 1
	}
	return &Recorder{mask: uint64(n - 1), slots: make([]recSlot, n)}
}

// Record appends one event, overwriting the oldest when the ring is full.
func (r *Recorder) Record(kind RecKind, code uint8, trace uint64, a, b int64) {
	if r == nil {
		return
	}
	seq := r.next.Add(1)
	sl := &r.slots[(seq-1)&r.mask]
	for {
		cur := sl.seq.Load()
		if cur&^recBusy > seq {
			return // a writer a lap ahead holds the slot: this event is already overwritten
		}
		if cur&recBusy == 0 && sl.seq.CompareAndSwap(cur, seq|recBusy) {
			break
		}
		runtime.Gosched() // a writer a lap behind is still storing its payload here
	}
	sl.time.Store(time.Now().UnixNano())
	sl.kc.Store(uint32(kind)<<8 | uint32(code))
	sl.trace.Store(trace)
	sl.a.Store(a)
	sl.b.Store(b)
	sl.seq.Store(seq)
}

// Events snapshots the ring in sequence order, oldest first. Slots torn by
// concurrent writers are skipped — a dump taken during a write burst loses
// at most the entries being overwritten at that instant.
func (r *Recorder) Events() []RecEvent {
	if r == nil {
		return nil
	}
	out := make([]RecEvent, 0, len(r.slots))
	for i := range r.slots {
		sl := &r.slots[i]
		seq := sl.seq.Load()
		if seq == 0 || seq&recBusy != 0 {
			continue
		}
		ev := RecEvent{
			Seq:   seq,
			Time:  sl.time.Load(),
			Trace: sl.trace.Load(),
			A:     sl.a.Load(),
			B:     sl.b.Load(),
		}
		kc := sl.kc.Load()
		ev.Kind, ev.Code = RecKind(kc>>8), uint8(kc)
		if sl.seq.Load() != seq {
			continue // overwritten while we read it
		}
		out = append(out, ev)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// WriteJSON dumps the ring as a JSON array, oldest event first: seq, an
// RFC3339Nano timestamp, the kind and code by name, the trace ID as 16 hex
// digits (the same rendering the client CLIs print), and the kind-specific
// a/b payloads.
func (r *Recorder) WriteJSON(w io.Writer) error {
	evs := r.Events()
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, e := range evs {
		sep := ","
		if i == len(evs)-1 {
			sep = ""
		}
		_, err := fmt.Fprintf(w,
			"  {\"seq\":%d,\"time\":%q,\"kind\":%q,\"code\":%q,\"trace\":\"%016x\",\"a\":%d,\"b\":%d}%s\n",
			e.Seq, time.Unix(0, e.Time).UTC().Format(time.RFC3339Nano),
			e.Kind.String(), CodeLabel(e.Kind, e.Code), e.Trace, e.A, e.B, sep)
		if err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}

// defaultRecorder is the process-wide always-on recorder every layer
// records into; /debug/events and the SIGQUIT dump read it.
var defaultRecorder = NewRecorder(4096)

// Record appends one event to the process-wide recorder.
func Record(kind RecKind, code uint8, trace uint64, a, b int64) {
	defaultRecorder.Record(kind, code, trace, a, b)
}

// Events snapshots the process-wide recorder.
func Events() []RecEvent { return defaultRecorder.Events() }

// WriteEventsJSON dumps the process-wide recorder as JSON.
func WriteEventsJSON(w io.Writer) error { return defaultRecorder.WriteJSON(w) }
