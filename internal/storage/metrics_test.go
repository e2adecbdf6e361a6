package storage

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"spatialjoin/internal/obs"
)

// scrape renders reg and returns each sample's value by name.
func scrape(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples := make(map[string]float64)
	for _, line := range strings.Split(sb.String(), "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		samples[name] = v
	}
	return samples
}

// TestRegisterMetricsFollowsTheCounters scrapes the pool's and device's
// families after two rounds of work: each sample must equal the counter it
// reads at scrape time, not at registration.
func TestRegisterMetricsFollowsTheCounters(t *testing.T) {
	d, bp := newPoolT(t, 128, 2)
	f := d.CreateFile()
	a, b, c := allocInit(t, d, f), allocInit(t, d, f), allocInit(t, d, f)
	reg := obs.NewRegistry()
	bp.RegisterMetrics(reg)

	for round, ids := range [][]PageID{{a, b, a}, {c, b, b, a}} {
		for _, id := range ids {
			if _, err := bp.Fetch(id); err != nil {
				t.Fatal(err)
			}
		}
		ps, ds := bp.Stats(), d.Stats()
		want := map[string]float64{
			"spatialjoin_pool_logical_reads_total": float64(ps.LogicalReads),
			"spatialjoin_pool_misses_total":        float64(ps.Misses),
			"spatialjoin_pool_evictions_total":     float64(ps.Evictions),
			"spatialjoin_pool_read_retries_total":  float64(ps.ReadRetries),
			"spatialjoin_pool_write_retries_total": float64(ps.WriteRetries),
			"spatialjoin_pool_wal_syncs_total":     float64(ps.WALSyncs),
			"spatialjoin_pool_hit_ratio":           ps.HitRatio(),
			"spatialjoin_disk_reads_total":         float64(ds.Reads),
			"spatialjoin_disk_writes_total":        float64(ds.Writes),
			"spatialjoin_disk_read_faults_total":   float64(ds.ReadFaults),
			"spatialjoin_disk_write_faults_total":  float64(ds.WriteFaults),
		}
		got := scrape(t, reg)
		for name, v := range want {
			g, ok := got[name]
			if !ok {
				t.Fatalf("round %d: %s not exposed", round, name)
			}
			if math.Abs(g-v) > 1e-9 {
				t.Errorf("round %d: %s = %v, want %v", round, name, g, v)
			}
		}
		if ps.Misses == 0 || ds.Reads == 0 {
			t.Fatalf("round %d: no misses or device reads (%+v, %+v); the check is vacuous", round, ps, ds)
		}
	}
}
