package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spatialjoin/internal/parallel"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds the fixed registry the exposition golden test
// renders: every kind, labeled and unlabeled children, and a label value
// exercising all three escape sequences.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("test_requests_total", "Total requests.", L("strategy", "tree"), L("kind", "filter")).Add(3)
	r.Counter("test_requests_total", "Total requests.", L("strategy", "nested"), L("kind", "refine")).Add(5)
	r.Gauge("test_queue_depth", "Current queue depth.").Set(7)
	h := r.Histogram("test_latency_seconds", "Latency of requests.", []float64{0.5, 1, 10})
	for _, v := range []float64{0.25, 0.5, 5, 100} {
		h.Observe(v)
	}
	r.CounterFunc("test_sampled_total", "Sampled from an external atomic.", func() float64 { return 42 })
	r.Gauge("test_weird_gauge", "Help with \\ backslash and\n newline.", L("v", "a\\b\"c\nd")).Set(1)
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	golden := filepath.Join("testdata", "prometheus.golden")
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("Prometheus output differs from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// TestWritePrometheusStable re-renders the same registry several times:
// map iteration must not leak into the exposition order.
func TestWritePrometheusStable(t *testing.T) {
	r := goldenRegistry()
	var first bytes.Buffer
	if err := r.WritePrometheus(&first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		var again bytes.Buffer
		if err := r.WritePrometheus(&again); err != nil {
			t.Fatal(err)
		}
		if again.String() != first.String() {
			t.Fatalf("render %d differs from first:\n%s\nvs\n%s", i, again.String(), first.String())
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	cases := []struct{ in, want string }{
		{`plain`, `plain`},
		{`back\slash`, `back\\slash`},
		{`qu"ote`, `qu\"ote`},
		{"new\nline", `new\nline`},
		{"all\\\"\n", `all\\\"\n`},
	}
	for _, c := range cases {
		if got := escapeLabel(c.in); got != c.want {
			t.Errorf("escapeLabel(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if got := escapeHelp("a\\b\"c\nd"); got != "a\\\\b\"c\\nd" {
		t.Errorf("escapeHelp: got %q", got)
	}
}

func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_h", "", []float64{1, 2, 4})
	// A sample exactly on a bound belongs to that bucket (le semantics),
	// below the first bound to the first, above the last to +Inf only.
	for _, v := range []float64{-3, 0, 1, 1.5, 2, 2.0001, 4, 5} {
		h.Observe(v)
	}
	bounds, cum := h.Buckets()
	if want := []float64{1, 2, 4}; fmt.Sprint(bounds) != fmt.Sprint(want) {
		t.Fatalf("bounds = %v, want %v", bounds, want)
	}
	// le=1: {-3,0,1}=3; le=2: +{1.5,2}=5; le=4: +{2.0001,4}=7; +Inf: +{5}=8.
	if want := []int64{3, 5, 7, 8}; fmt.Sprint(cum) != fmt.Sprint(want) {
		t.Fatalf("cumulative = %v, want %v", cum, want)
	}
	if h.Count() != 8 {
		t.Fatalf("Count = %d, want 8", h.Count())
	}
	if got, want := h.Sum(), -3+0+1+1.5+2+2.0001+4+5.0; got != want {
		t.Fatalf("Sum = %v, want %v", got, want)
	}
}

func TestHistogramRejectsBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v: expected panic", bounds)
				}
			}()
			NewRegistry().Histogram("test_h", "", bounds)
		}()
	}
}

func TestRegistryPanicsOnInconsistentRegistration(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("test_a_total", "")
	mustPanic("kind change", func() { r.Gauge("test_a_total", "") })
	r.Counter("test_b_total", "", L("x", "1"))
	mustPanic("label keys change", func() { r.Counter("test_b_total", "", L("y", "1")) })
	mustPanic("label arity change", func() { r.Counter("test_b_total", "") })
	mustPanic("bad metric name", func() { r.Counter("bad name", "") })
	mustPanic("bad label name", func() { r.Counter("test_c_total", "", L("bad key", "v")) })
}

func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter should read 0")
	}
	g := r.Gauge("x", "")
	g.Set(3)
	g.Add(-1)
	if g.Value() != 0 {
		t.Fatal("nil gauge should read 0")
	}
	h := r.Histogram("x", "", []float64{1})
	h.Observe(2)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram should read 0")
	}
	if b, c := h.Buckets(); b != nil || c != nil {
		t.Fatal("nil histogram buckets should be nil")
	}
	r.CounterFunc("x", "", func() float64 { return 1 })
	r.GaugeFunc("x", "", func() float64 { return 1 })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry exposition: err=%v len=%d", err, buf.Len())
	}
	if got := r.Expvar()(); len(got.(map[string]any)) != 0 {
		t.Fatalf("nil registry expvar: %v", got)
	}
	r.PublishExpvar("test_nil_registry")
}

// TestRegistryRace hammers one registry from the parallel worker pool —
// the same pool the join strategies use — while a scraper renders it
// concurrently. Run under -race this is the data-race gate for the whole
// metrics plane.
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			_ = r.Expvar()()
		}
	}()
	err := parallel.RunCtx(context.Background(), 8, 512, func(i int) error {
		strategy := []string{"tree", "nested", "index"}[i%3]
		r.Counter("race_queries_total", "q", L("strategy", strategy)).Inc()
		r.Gauge("race_depth", "d").Set(int64(i))
		r.Histogram("race_latency", "l", []float64{1, 10, 100}).Observe(float64(i % 200))
		r.CounterFunc("race_sampled_total", "s", func() float64 { return float64(i) })
		return nil
	})
	close(stop)
	<-scraped
	if err != nil {
		t.Fatalf("parallel.RunCtx: %v", err)
	}
	total := int64(0)
	for _, s := range []string{"tree", "nested", "index"} {
		total += r.Counter("race_queries_total", "q", L("strategy", s)).Value()
	}
	if total != 512 {
		t.Fatalf("counter lost updates: %d, want 512", total)
	}
	if h := r.Histogram("race_latency", "l", []float64{1, 10, 100}); h.Count() != 512 {
		t.Fatalf("histogram lost updates: %d, want 512", h.Count())
	}
}

func TestExpvarShape(t *testing.T) {
	r := goldenRegistry()
	v := r.Expvar()()
	// Round-trip through JSON the way expvar serves it.
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got := m["test_queue_depth"]; got != float64(7) {
		t.Errorf("unlabeled gauge = %v, want 7", got)
	}
	reqs, ok := m["test_requests_total"].(map[string]any)
	if !ok {
		t.Fatalf("labeled counter not a map: %v", m["test_requests_total"])
	}
	if got := reqs["strategy=tree,kind=filter"]; got != float64(3) {
		t.Errorf("labeled child = %v, want 3", got)
	}
	hist, ok := m["test_latency_seconds"].(map[string]any)
	if !ok {
		t.Fatalf("histogram not a map: %v", m["test_latency_seconds"])
	}
	if got := hist["count"]; got != float64(4) {
		t.Errorf("histogram count = %v, want 4", got)
	}
}

func TestHandlerAndMux(t *testing.T) {
	r := goldenRegistry()
	mux := NewMux(r)
	for _, path := range []string{"/metrics", "/debug/vars", "/debug/pprof/"} {
		req := httptest.NewRequest("GET", path, nil)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if rec.Code != 200 {
			t.Errorf("GET %s: status %d", path, rec.Code)
		}
	}
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "test_requests_total{") {
		t.Errorf("/metrics body missing counter:\n%s", rec.Body.String())
	}
}
