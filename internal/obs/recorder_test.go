package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecorderBasicOrder(t *testing.T) {
	r := NewRecorder(64)
	for i := int64(1); i <= 10; i++ {
		r.Record(RecQueryFinish, RecCodeOK, uint64(i), i*100, i)
	}
	evs := r.Events()
	if len(evs) != 10 {
		t.Fatalf("%d events, want 10", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		if e.Kind != RecQueryFinish || e.Code != RecCodeOK {
			t.Fatalf("event %d: kind %v code %d", i, e.Kind, e.Code)
		}
		if e.Trace != uint64(i+1) || e.A != int64(i+1)*100 || e.B != int64(i+1) {
			t.Fatalf("event %d payload: %+v", i, e)
		}
		if e.Time == 0 {
			t.Fatalf("event %d has zero timestamp", i)
		}
	}
}

func TestRecorderWraparoundKeepsNewest(t *testing.T) {
	r := NewRecorder(16) // exactly 16 slots
	for i := int64(1); i <= 100; i++ {
		r.Record(RecFaultRetry, RecCodeRead, 0, i, 0)
	}
	evs := r.Events()
	if len(evs) != 16 {
		t.Fatalf("%d events after wrap, want 16", len(evs))
	}
	if evs[0].Seq != 85 || evs[15].Seq != 100 {
		t.Fatalf("wrap kept seqs %d..%d, want 85..100", evs[0].Seq, evs[15].Seq)
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record(RecQueryStart, 0, 0, 0, 0) // must not panic
	if evs := r.Events(); evs != nil {
		t.Fatalf("nil recorder returned events: %v", evs)
	}
}

func TestRecorderSizing(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{
		{0, 16}, {1, 16}, {16, 16}, {17, 32}, {100, 128}, {4096, 4096},
	} {
		if r := NewRecorder(tc.ask); len(r.slots) != tc.want {
			t.Errorf("NewRecorder(%d): %d slots, want %d", tc.ask, len(r.slots), tc.want)
		}
	}
}

// TestRecorderRecordDoesNotAllocate is the always-on budget: recording an
// event allocates nothing, so the recorder can stay armed in production.
func TestRecorderRecordDoesNotAllocate(t *testing.T) {
	r := NewRecorder(1024)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(RecQueryFinish, RecCodeOK, 42, 1000, 10)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f times per call, want 0", allocs)
	}
}

// TestRecorderConcurrentHammer runs writers against dumpers with no
// synchronization beyond the ring's own discipline. Run under -race this
// is the proof the seqlock scheme is data-race-free; the assertions prove
// every event a dump does return is internally consistent (never torn
// across two writes).
func TestRecorderConcurrentHammer(t *testing.T) {
	r := NewRecorder(64) // small ring: constant overwriting
	const writers = 8
	const perWriter = 5000
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < perWriter; i++ {
				// Payload fields are all derived from the writer id, so a
				// torn read that mixed two writers' fields is detectable.
				id := int64(w)
				r.Record(RecQueryFinish, RecCodeOK, uint64(w), id*1_000_000, id*7)
			}
		}(w)
	}
	dumps := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-start:
			default:
			}
			evs := r.Events()
			for _, e := range evs {
				w := int64(e.Trace)
				if e.A != w*1_000_000 || e.B != w*7 {
					t.Errorf("torn event surfaced: %+v", e)
				}
			}
			dumps++
			if dumps > 200 {
				return
			}
		}
	}()
	close(start)
	wg.Wait()
	<-done

	evs := r.Events()
	if len(evs) != 64 {
		t.Fatalf("%d events after hammer, want a full ring of 64", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("dump out of order at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
	// The final dump, quiesced, holds exactly the newest 64 sequence
	// numbers of the writers*perWriter total.
	if min := evs[0].Seq; min != writers*perWriter-64+1 {
		t.Fatalf("oldest surviving seq %d, want %d", min, writers*perWriter-64+1)
	}
}

// TestRecorderHammerLeaksNoGoroutines pins that recording and dumping
// spin up nothing that outlives the calls.
func TestRecorderHammerLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	r := NewRecorder(32)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Record(RecCheckpointEnd, 0, 0, int64(i), 0)
				if i%100 == 0 {
					_ = r.Events()
				}
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines grew from %d to %d", before, runtime.NumGoroutine())
}

func TestRecorderWriteJSON(t *testing.T) {
	r := NewRecorder(16)
	r.Record(RecQueryStart, RecCodeJoin, 0xDEADBEEF, 1, 0)
	r.Record(RecSlowQuery, RecCodeDegraded, 0xDEADBEEF, 2_000_000, 1_000_000)
	r.Record(RecReplState, RecCodeStreaming, 0, int64(RecCodeCatchingUp), 0)
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var evs []struct {
		Seq   uint64 `json:"seq"`
		Time  string `json:"time"`
		Kind  string `json:"kind"`
		Code  string `json:"code"`
		Trace string `json:"trace"`
		A     int64  `json:"a"`
		B     int64  `json:"b"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &evs); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, sb.String())
	}
	if len(evs) != 3 {
		t.Fatalf("%d events in dump, want 3", len(evs))
	}
	if evs[0].Kind != "query_start" || evs[0].Code != "join" {
		t.Errorf("event 0: kind %q code %q", evs[0].Kind, evs[0].Code)
	}
	if evs[0].Trace != "00000000deadbeef" {
		t.Errorf("trace rendered %q, want 16 hex digits", evs[0].Trace)
	}
	if evs[1].Kind != "slow_query" || evs[1].Code != "degraded" || evs[1].A != 2_000_000 {
		t.Errorf("event 1: %+v", evs[1])
	}
	if evs[2].Kind != "repl_state" || evs[2].Code != "streaming" {
		t.Errorf("event 2: kind %q code %q", evs[2].Kind, evs[2].Code)
	}
	if _, err := time.Parse(time.RFC3339Nano, evs[0].Time); err != nil {
		t.Errorf("timestamp %q is not RFC3339Nano: %v", evs[0].Time, err)
	}
}

func TestRecorderWriteJSONEmpty(t *testing.T) {
	var sb strings.Builder
	if err := NewRecorder(16).WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var evs []any
	if err := json.Unmarshal([]byte(sb.String()), &evs); err != nil {
		t.Fatalf("empty dump is not valid JSON: %v\n%s", err, sb.String())
	}
	if len(evs) != 0 {
		t.Fatalf("empty recorder dumped %d events", len(evs))
	}
}

func TestCodeLabels(t *testing.T) {
	cases := []struct {
		k    RecKind
		c    uint8
		want string
	}{
		{RecQueryStart, RecCodeSelect, "select"},
		{RecQueryStart, RecCodeJoin, "join"},
		{RecQueryFinish, RecCodeOK, "ok"},
		{RecQueryFinish, RecCodeTimeout, "timeout"},
		{RecSlowQuery, RecCodeError, "error"},
		{RecReplState, RecCodeSeeding, "seeding"},
		{RecReplState, RecCodeStalled, "stalled"},
		{RecFaultRetry, RecCodeWrite, "write"},
		{RecAdmissionShed, RecCodeBusy, "server_busy"},
		{RecAdmissionShed, RecCodeShuttingDown, "shutting_down"},
		{RecCheckpointBegin, 0, "0"}, // no namespace: numeric
		{RecQueryFinish, 99, "99"},   // unknown outcome: numeric
	}
	for _, tc := range cases {
		if got := CodeLabel(tc.k, tc.c); got != tc.want {
			t.Errorf("CodeLabel(%v, %d) = %q, want %q", tc.k, tc.c, got, tc.want)
		}
	}
}

// TestDebugEventsEndpoint drives the obs mux route the daemon exposes.
func TestDebugEventsEndpoint(t *testing.T) {
	Record(RecCheckpointBegin, 0, 0, 123, 0)
	srv := httptest.NewServer(NewMux(NewRegistry()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/debug/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("Content-Type %q", ct)
	}
	var evs []map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&evs); err != nil {
		t.Fatalf("endpoint body is not JSON: %v", err)
	}
	found := false
	for _, e := range evs {
		if e["kind"] == "checkpoint_begin" && e["a"] == float64(123) {
			found = true
		}
	}
	if !found {
		t.Error("recorded checkpoint_begin event missing from /debug/events")
	}
}

// TestRecorderSlotKeepsNewestSeq records seq s+64 and then seq s into the
// same slot of a 64-slot ring, the order a writer descheduled between
// taking its sequence number and storing its event produces: the slot
// keeps s+64 and its payload.
func TestRecorderSlotKeepsNewestSeq(t *testing.T) {
	r := NewRecorder(64)
	const s = 100
	r.next.Store(s + 64 - 1)
	r.Record(RecQueryFinish, RecCodeOK, 2, 2_000_000, 14)
	r.next.Store(s - 1)
	r.Record(RecQueryFinish, RecCodeOK, 1, 1_000_000, 7)
	evs := r.Events()
	if len(evs) != 1 || evs[0].Seq != s+64 || evs[0].Trace != 2 || evs[0].A != 2_000_000 || evs[0].B != 14 {
		t.Fatalf("slot holds %+v, want the one event seq %d, trace 2", evs, s+64)
	}
}
