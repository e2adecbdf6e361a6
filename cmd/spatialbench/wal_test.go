package main

import (
	"strings"
	"testing"

	"spatialjoin/internal/costmodel"
)

func TestWALOverheadOutput(t *testing.T) {
	var sb strings.Builder
	if err := run(&sb, costmodel.PaperParams(), testOpts("wal")); err != nil {
		t.Fatalf("run(wal): %v", err)
	}
	out := sb.String()
	for _, want := range []string{"WAL overhead", "wal off", "sync every commit",
		"group commit 4", "inserts/s", "device writes", "log writes", "bytes logged", "bytes/insert", "images", "1.00x"} {
		if !strings.Contains(out, want) {
			t.Fatalf("wal output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "recovery:") {
		t.Fatalf("wal table without -crash-at/-recover must not run recovery:\n%s", out)
	}
	// The wal-off row logs nothing; both WAL rows log the same byte stream
	// (policy changes when syncs happen, not what is logged). The load
	// never takes a checkpoint, so every page's history starts at slot 0
	// and no row logs a page image: an insert costs a few hundred bytes.
	var logged, perInsert, images []string
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 11 && strings.HasSuffix(f[len(f)-8], "x") {
			logged = append(logged, f[len(f)-4])
			perInsert = append(perInsert, f[len(f)-3])
			images = append(images, f[len(f)-2])
		}
	}
	if len(logged) != 3 || logged[0] != "0" || logged[1] == "0" || logged[1] != logged[2] {
		t.Fatalf("bytes-logged column inconsistent: %v\n%s", logged, out)
	}
	for i, n := range perInsert {
		if len(n) > 3 || images[i] != "0" {
			t.Fatalf("row %d logs %s bytes/insert and %s images, want under 1000 B and no image:\n%s", i, n, images[i], out)
		}
	}
}

func TestWALCrashCycleOutput(t *testing.T) {
	var sb strings.Builder
	o := testOpts("wal")
	o.crashAt = 40
	if err := run(&sb, costmodel.PaperParams(), o); err != nil {
		t.Fatalf("run(wal, crash-at 40): %v", err)
	}
	out := sb.String()
	for _, want := range []string{"crash cycle", "injected crash at write 40",
		"recovery:", "records scanned", "torn tail bytes", "survived:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("crash-cycle output missing %q:\n%s", want, out)
		}
	}
}

func TestWALRecoverWithoutCrash(t *testing.T) {
	var sb strings.Builder
	o := testOpts("wal")
	o.doRecover = true
	if err := run(&sb, costmodel.PaperParams(), o); err != nil {
		t.Fatalf("run(wal, recover): %v", err)
	}
	out := sb.String()
	for _, want := range []string{"recovery:", "0 torn tail bytes", "0 discarded"} {
		if !strings.Contains(out, want) {
			t.Fatalf("recover-only output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "survived: 600 of 600") {
		t.Fatalf("recover without crash must keep every insert:\n%s", out)
	}
}
