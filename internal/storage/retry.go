package storage

import (
	"fmt"
	"time"
)

// RetryPolicy bounds how the buffer pool re-drives a failed physical page
// transfer: up to MaxAttempts total attempts per operation, separated by
// capped exponential backoff with deterministic jitter. Only transient
// failures (see IsTransient) and checksum mismatches — which may be
// in-flight corruption a re-read fixes — are retried; permanent faults
// abort immediately.
//
// The jitter is a pure function of (Seed, page, attempt), so a fixed fault
// schedule replays with identical timing decisions — the property the chaos
// harness relies on.
type RetryPolicy struct {
	// MaxAttempts is the total number of physical attempts per operation,
	// including the first. Values < 1 behave as 1 (no retry).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further retry
	// doubles it, capped at MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the per-retry backoff. 0 means no cap.
	MaxDelay time.Duration
	// Seed drives the deterministic jitter.
	Seed int64

	// sleep overrides time.Sleep in tests; nil means time.Sleep.
	sleep func(time.Duration)
}

// DefaultRetryPolicy returns the pool's default policy: 4 attempts with
// 100µs base backoff capped at 2ms — small absolute delays, because the
// simulated disk's "latency" is an accounting fiction, while the attempt
// budget is the behavior under test.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 100 * time.Microsecond, MaxDelay: 2 * time.Millisecond}
}

// ReadVerified drives one logical read of page id into buf, which must be
// one page long: each physical attempt is checked against the checksum the
// device recorded at the page's last write (fault devices hand back damaged
// bytes rather than an error — end-to-end verification is the reader's
// job), and transient faults and checksum mismatches — which may be
// in-flight corruption a re-read fixes — are retried under p. It is the one
// read path of everything that must not trust a single transfer: the buffer
// pool's misses and the log's recovery. retries counts the attempts after
// the first; the error wraps the last attempt's failure, so errors.Is/As
// classification survives — except that a checksum mismatch outranks a
// later transient fault: bytes that reached the reader and failed
// verification say more about the page than an attempt that never did.
func ReadVerified(dev Device, id PageID, buf []byte, p RetryPolicy) (retries int, _ error) {
	var last, mismatch error
	for attempt := 1; attempt <= p.attempts(); attempt++ {
		if attempt > 1 {
			retries++
			p.pause(attempt-1, id)
		}
		err := dev.ReadPageInto(id, buf)
		if err == nil {
			if want, ok := dev.Checksum(id); ok {
				if got := PageChecksum(buf); got != want {
					last = &ChecksumError{Page: id, Want: want, Got: got}
					mismatch = last
					continue
				}
			}
			return retries, nil
		}
		last = err
		if IsChecksum(err) {
			mismatch = err
		} else if !IsTransient(err) {
			break
		}
	}
	if mismatch != nil && IsTransient(last) {
		last = mismatch
	}
	return retries, fmt.Errorf("storage: read of page %v gave up after retries: %w", id, last)
}

// attempts returns the effective attempt budget.
func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// pause sleeps the backoff before retry number `retry` (1-based) of an
// operation on page id.
func (p RetryPolicy) pause(retry int, id PageID) {
	if p.BaseDelay <= 0 {
		return
	}
	d := p.BaseDelay
	for i := 1; i < retry && (p.MaxDelay <= 0 || d < p.MaxDelay); i++ {
		d *= 2
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	// Deterministic jitter in [50%, 100%] of the backoff: decorrelates
	// concurrent retries without a shared RNG.
	h := mix64(uint64(p.Seed) ^ uint64(id.File)<<40 ^ uint64(uint32(id.Page))<<8 ^ uint64(retry))
	frac := 0.5 + 0.5*float64(h>>11)/float64(1<<53)
	d = time.Duration(float64(d) * frac)
	if p.sleep != nil {
		p.sleep(d)
		return
	}
	time.Sleep(d)
}

// mix64 is the SplitMix64 finalizer, a cheap statistically strong mixer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
