package repl

// Source stream contract tests: a snapshot stream is the exporter's bytes
// cut into wire.MaxReplChunk chunks, sent from one buffer on the caller's
// goroutine, and it stops at the first chunk after its context ends, its
// source closes or its send fails.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"spatialjoin"
	"spatialjoin/internal/wal"
	"spatialjoin/internal/wire"
)

// streamPrimary opens a primary with a source and loads it in two steps:
// base rectangles before the source starts, then more after the returned
// position, each with a long payload so that a full snapshot or a delta
// from that position spans several chunks. The same calls build the same
// bytes, so two primaries built alike are twins.
func streamPrimary(t *testing.T) (*spatialjoin.Database, *Source, wal.LSN) {
	t.Helper()
	const base, more = 600, 1500
	db, err := spatialjoin.Open(replConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	col, err := db.CreateCollection("r")
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("p", 200)
	insert := func(from, to int) {
		for i := from; i < to; i++ {
			if _, err := col.Insert(wRect(i), fmt.Sprintf("%s%d", pad, i)); err != nil {
				t.Fatalf("insert %d: %v", i, err)
			}
		}
	}
	insert(0, base)
	src, err := NewSource(db, SourceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(src.Close)
	position := db.DurableLSN()
	insert(base, base+more)
	return db, src, position
}

// TestStreamSnapChunksAreTheExport: joined, a snapshot stream's chunks are
// byte for byte what ExportSnapshot (full) or ExportDelta (delta) writes
// for the same position on a twin primary, every chunk but the last is
// wire.MaxReplChunk long, and the offsets count the bytes before them.
func TestStreamSnapChunksAreTheExport(t *testing.T) {
	for _, full := range []bool{true, false} {
		name := "delta"
		if full {
			name = "full"
		}
		t.Run(name, func(t *testing.T) {
			_, src, position := streamPrimary(t)
			twin, twinSrc, _ := streamPrimary(t)
			since := position
			if full {
				since = 0
			}

			var got [][]byte
			var off uint64
			shippedFull, err := src.StreamSnap(context.Background(), since, func(c wire.SnapChunk) error {
				if c.Offset != off {
					t.Errorf("chunk %d at offset %d, want %d", len(got), c.Offset, off)
				}
				off += uint64(len(c.Data))
				got = append(got, bytes.Clone(c.Data))
				return nil
			})
			if err != nil {
				t.Fatalf("StreamSnap: %v", err)
			}
			if shippedFull != full {
				t.Fatalf("StreamSnap shipped full=%v, want %v", shippedFull, full)
			}

			twinFull, pages, err := twinSrc.snapPages(since)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if twinFull {
				_, err = twin.ExportSnapshot(&want)
			} else {
				_, err = twin.ExportDelta(&want, since, pages)
			}
			if err != nil {
				t.Fatalf("twin export: %v", err)
			}

			if len(got) < 3 {
				t.Fatalf("stream sent %d chunks (%d bytes); the test needs at least 3", len(got), off)
			}
			for i, c := range got {
				if i < len(got)-1 && len(c) != wire.MaxReplChunk {
					t.Errorf("chunk %d of %d is %d bytes, want %d", i, len(got), len(c), wire.MaxReplChunk)
				}
				if len(c) == 0 || len(c) > wire.MaxReplChunk {
					t.Errorf("chunk %d is %d bytes", i, len(c))
				}
			}
			if !bytes.Equal(bytes.Join(got, nil), want.Bytes()) {
				t.Fatalf("joined chunks (%d bytes) differ from the twin's export (%d bytes)", off, want.Len())
			}
		})
	}
}

// TestStreamSnapStopsWhenCancelledOrClosed: a context cancelled, or the
// source closed, while the first chunk is sent ends the stream with that
// cause before a second chunk goes out, and leaves no open stream and no
// goroutine behind.
func TestStreamSnapStopsWhenCancelledOrClosed(t *testing.T) {
	before := settledGoroutines()
	for _, tc := range []struct {
		name string
		want error
	}{{"cancel", context.Canceled}, {"close", ErrSourceClosed}} {
		t.Run(tc.name, func(t *testing.T) {
			_, src, _ := streamPrimary(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sends := 0
			_, err := src.StreamSnap(ctx, 0, func(wire.SnapChunk) error {
				sends++
				if tc.want == ErrSourceClosed {
					src.Close()
				} else {
					cancel()
				}
				return nil
			})
			if !errors.Is(err, tc.want) {
				t.Fatalf("StreamSnap = %v, want %v", err, tc.want)
			}
			if sends != 1 {
				t.Errorf("%d chunks sent, want 1", sends)
			}
			if n := src.snapStreams.Load(); n != 0 {
				t.Errorf("snap_streams reads %d after the stream ended, want 0", n)
			}
		})
	}
	if after := settledGoroutines(); after > before {
		t.Errorf("goroutines settled at %d after the streams ended, started at %d — leak", after, before)
	}
}

// TestStreamSnapReturnsSendError: a failed send aborts the export, and
// StreamSnap returns that error.
func TestStreamSnapReturnsSendError(t *testing.T) {
	_, src, _ := streamPrimary(t)
	errSend := errors.New("send failed")
	sends := 0
	_, err := src.StreamSnap(context.Background(), 0, func(wire.SnapChunk) error {
		sends++
		if sends == 2 {
			return errSend
		}
		return nil
	})
	if !errors.Is(err, errSend) {
		t.Fatalf("StreamSnap = %v, want %v", err, errSend)
	}
	if sends != 2 {
		t.Errorf("%d sends, want 2: the export must stop at the failed one", sends)
	}
	if n := src.snapStreams.Load(); n != 0 {
		t.Errorf("snap_streams reads %d after the stream ended, want 0", n)
	}
}
