package spatialjoin

// FuzzRecovery drives the crash-sweep harness from fuzzed inputs: an
// arbitrary crash point (by physical write ordinal), worker count,
// group-commit policy, checkpoint interval, and whether the checkpoints
// truncate (each then stamps a raised scan floor into the log, and recovery
// starts at the live head). The invariant is the
// tentpole guarantee itself — reopening a crashed device never errors,
// and the recovered database is byte-identical to a committed prefix of
// the workload for every strategy, wherever the checkpoint boundary
// falls. A final dimension ships a snapshot off the recovered database
// and requires the seeded replica to answer identically.

import (
	"bytes"
	"testing"

	"spatialjoin/internal/fault"
)

func FuzzRecovery(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(1), uint8(0), false)
	f.Add(int64(7), uint8(4), uint8(1), uint8(0), false)
	f.Add(int64(20), uint8(1), uint8(4), uint8(0), false)
	f.Add(int64(39), uint8(2), uint8(2), uint8(2), false)
	f.Add(int64(63), uint8(1), uint8(1), uint8(1), true)
	f.Add(int64(150), uint8(1), uint8(1), uint8(3), true)
	f.Add(int64(1000), uint8(3), uint8(8), uint8(2), false)
	// Truncating checkpoints (ckpt in 5..9): a stamped floor under the crash.
	f.Add(int64(39), uint8(2), uint8(1), uint8(7), false)
	f.Add(int64(52), uint8(1), uint8(1), uint8(6), true)
	f.Add(int64(30), uint8(1), uint8(1), uint8(8), false)
	f.Add(int64(61), uint8(4), uint8(4), uint8(9), false)
	f.Fuzz(func(t *testing.T, crashAt int64, workers, group, ckpt uint8, seedReplica bool) {
		w := 1 + int(workers%8)
		g := 1 + int(group%8)
		// Keep the ordinal in a range that can actually fire plus a margin
		// that exercises the no-crash path.
		n := 1 + crashAt%64
		if n < 0 {
			n = -n
		}
		// 0 = no checkpoints; 1..4 = a fuzzy checkpoint after every k-th
		// workload step, sliding the boundary across the whole workload;
		// the next digit up says whether the checkpoints truncate.
		steps := stepsWithCheckpointEvery(int(ckpt%5), ckpt/5%2 == 1)
		cfg := crashConfig(w, g)
		if g > 1 {
			// Group commit relaxes the in-flight-step ambiguity to the
			// prefix property; the harness's two-candidate check only holds
			// for sync-every-commit, so fuzz the strict policy for state
			// equality and the relaxed one for crash-free recovery only.
			db, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			db.FaultDisk().SetCrashAfterWrites(n)
			crashed := false
			func() {
				defer func() {
					if v := recover(); v != nil {
						if _, ok := fault.AsCrash(v); !ok {
							panic(v)
						}
						crashed = true
					}
				}()
				for _, st := range steps {
					if err := st.run(db); err != nil {
						t.Fatalf("step %s: %v", st.name, err)
					}
				}
			}()
			if !crashed {
				return
			}
			db.FaultDisk().Reboot()
			rdb, _, err := Reopen(cfg, db.Device())
			if err != nil {
				t.Fatalf("Reopen after group-commit crash at write %d: %v", n, err)
			}
			for j := -1; j < len(steps); j++ {
				m := crashModel{}
				if j >= 0 {
					m = steps[j].model
				}
				ok, err := stateMatches(rdb, m)
				if err != nil {
					t.Fatalf("verifying recovered state: %v", err)
				}
				if ok {
					return
				}
			}
			t.Fatalf("group-commit recovery at write %d matches no committed prefix", n)
		}
		runCrashCase(t, cfg, steps, t.Name(), func(fd *fault.Disk) {
			fd.SetCrashAfterWrites(n)
		})
		if seedReplica {
			fuzzSnapshotSeed(t, cfg, steps)
		}
	})
}

// fuzzSnapshotSeed runs the workload to completion (no crash), ships a
// snapshot, and requires the seeded replica to be byte-identical to the
// final model under every strategy.
func fuzzSnapshotSeed(t *testing.T, cfg Config, steps []crashStep) {
	t.Helper()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range steps {
		if err := st.run(db); err != nil {
			t.Fatalf("step %s: %v", st.name, err)
		}
	}
	var buf bytes.Buffer
	if _, err := db.ExportSnapshot(&buf); err != nil {
		t.Fatalf("ExportSnapshot: %v", err)
	}
	replica, _, err := SeedFromSnapshot(cfg, &buf)
	if err != nil {
		t.Fatalf("SeedFromSnapshot: %v", err)
	}
	final := steps[len(steps)-1].model
	ok, err := stateMatches(replica, final)
	if err != nil {
		t.Fatalf("verifying seeded replica: %v", err)
	}
	if !ok {
		t.Fatal("snapshot-seeded replica does not match the source workload state")
	}
}
