package storage

import "spatialjoin/internal/obs"

// RegisterMetrics exposes the pool's and its device's counters in reg as
// scrape-time samplers: the spatialjoin_pool_* and spatialjoin_disk_*
// families. Sampling reads the atomics a scrape finds, so registering
// costs the pool nothing per fetch. A caller that resets the counters
// between measurements makes these families non-monotone.
func (p *BufferPool) RegisterMetrics(reg *obs.Registry) {
	count := func(name, help string, fn func() int64) {
		reg.CounterFunc(name, help, func() float64 { return float64(fn()) })
	}
	count("spatialjoin_pool_logical_reads_total", "Page fetches served by the buffer pool.",
		func() int64 { return p.Stats().LogicalReads })
	count("spatialjoin_pool_misses_total", "Pool fetches that went to the disk (physical reads).",
		func() int64 { return p.Stats().Misses })
	count("spatialjoin_pool_evictions_total", "Frames evicted by the pool's LRU policy.",
		func() int64 { return p.Stats().Evictions })
	count("spatialjoin_pool_read_retries_total", "Physical page reads retried after a transient fault.",
		func() int64 { return p.Stats().ReadRetries })
	count("spatialjoin_pool_write_retries_total", "Physical page writes retried after a transient fault.",
		func() int64 { return p.Stats().WriteRetries })
	count("spatialjoin_pool_wal_syncs_total", "WAL syncs forced by dirty-frame write-back.",
		func() int64 { return p.Stats().WALSyncs })
	reg.GaugeFunc("spatialjoin_pool_hit_ratio", "Fraction of pool fetches served without disk I/O.",
		func() float64 { return p.Stats().HitRatio() })

	disk := p.Disk()
	count("spatialjoin_disk_reads_total", "Physical page reads at the device, including fault retries.",
		func() int64 { return disk.Stats().Reads })
	count("spatialjoin_disk_writes_total", "Physical page writes at the device, including fault retries.",
		func() int64 { return disk.Stats().Writes })
	count("spatialjoin_disk_read_faults_total", "Injected or detected read faults at the device.",
		func() int64 { return disk.Stats().ReadFaults })
	count("spatialjoin_disk_write_faults_total", "Injected or detected write faults at the device.",
		func() int64 { return disk.Stats().WriteFaults })
}
