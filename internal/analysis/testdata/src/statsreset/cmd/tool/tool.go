// Package tool is a golden fixture for the statsreset analyzer's scope: a
// package under a cmd directory holds code the commands share, so the
// discipline binds it as it binds package main.
package tool

import "spatialjoin/internal/storage"

// WarmCounters snapshots whatever accumulated since startup.
func WarmCounters(bp *storage.BufferPool) storage.PoolStats {
	return bp.Stats() // want "Stats() snapshot without a preceding"
}

// ColdCounters opens the window first.
func ColdCounters(bp *storage.BufferPool) (storage.PoolStats, error) {
	if err := bp.DropAll(); err != nil {
		return storage.PoolStats{}, err
	}
	return bp.Stats(), nil
}
