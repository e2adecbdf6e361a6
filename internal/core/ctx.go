package core

import "context"

// ctxStride is how many node examinations pass between context checks
// during a descent. Checking every node would put a synchronized load on
// the hottest loop of every strategy; every ctxStride nodes bounds the
// cancellation latency to a few dozen filter evaluations while keeping the
// common case free.
const ctxStride = 64

// ctxStep returns the context's error when the added (1 or 2) examinations
// that brought the caller's running count to nodes carried it onto or over
// a multiple of ctxStride; testing for equality would let a run of two-node
// steps from an odd count pass every multiple unchecked. ctx may be nil.
func ctxStep(ctx context.Context, nodes, added int64) error {
	if ctx == nil || nodes%ctxStride >= added {
		return nil
	}
	return ctx.Err()
}

// ctxErr returns ctx's error, nil for a nil ctx.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
