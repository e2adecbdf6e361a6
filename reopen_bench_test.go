package spatialjoin

// BenchmarkReopen measures checkpoint-bounded recovery: how long Reopen
// takes on a device holding n committed inserts, with and without a
// truncating checkpoint before the crash. Without a checkpoint, recovery
// replays every image and rebuilds the R-tree from the heap, so the cost
// grows with n; with one, replay is empty, the index fast-loads from the
// manifest's persisted file, and the time stays flat. The replayed/op,
// logpages and logreads/op metrics feed the EXPERIMENTS.md recovery table.

import (
	"fmt"
	"testing"
)

func BenchmarkReopen(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		for _, ckpt := range []bool{false, true} {
			b.Run(fmt.Sprintf("inserts=%d/checkpoint=%v", n, ckpt), func(b *testing.B) {
				cfg := DefaultConfig()
				cfg.WAL = true
				cfg.WALGroupCommit = 64
				db, err := Open(cfg)
				if err != nil {
					b.Fatal(err)
				}
				c, err := db.CreateCollection("pts")
				if err != nil {
					b.Fatal(err)
				}
				for i := 0; i < n; i++ {
					if _, err := c.Insert(crashRect(i), fmt.Sprintf("p%d", i)); err != nil {
						b.Fatal(err)
					}
				}
				truncated := 0
				if ckpt {
					cs, err := db.Checkpoint()
					if err != nil {
						b.Fatal(err)
					}
					truncated = cs.PagesTruncated
				} else if err := db.wal.Sync(); err != nil {
					b.Fatal(err)
				}
				dev := db.Device()
				// The live log is every page the log has allocated minus the
				// dead ones below the head.
				logPages := logEnd(db) - truncated
				var stats RecoveryStats
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, stats, err = Reopen(cfg, dev)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(stats.RecordsReplayed), "replayed/op")
				b.ReportMetric(float64(stats.RecordsSkipped), "skipped/op")
				b.ReportMetric(float64(logPages), "logpages")
				b.ReportMetric(float64(stats.LogPagesRead), "logreads/op")
			})
		}
	}
}
