// Package lib is a golden fixture for the statsreset analyzer's scope: a
// library package outside cmd reads its counters whenever it likes.
package lib

import "spatialjoin/internal/storage"

// Counters is a library accessor, not an experiment's snapshot.
func Counters(bp *storage.BufferPool) storage.PoolStats {
	return bp.Stats()
}
