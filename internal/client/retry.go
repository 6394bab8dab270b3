package client

import (
	"errors"
	"math/rand"
	"time"

	"authdb/internal/wire"
)

// RetryPolicy governs automatic recovery from transport faults and
// overload rejections. The zero value disables retries (one attempt,
// the pre-hardening behavior). Only idempotent requests are ever
// retried — 'P' plan queries and 'T' summary fetches are read-only —
// and verification always runs at most once, on the attempt that
// finally delivered bytes: a retry can never cause an answer to be
// accepted that was not fully verified.
type RetryPolicy struct {
	// MaxAttempts is the total tries per operation, including the
	// first (<= 1 disables retries).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; it doubles
	// each retry (0 = 5ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth (0 = 1s).
	MaxDelay time.Duration
	// MaxElapsed bounds the total time one operation may spend across
	// all attempts, backoff sleeps included (0 = no budget). A backoff
	// that would overrun the budget is truncated to the remainder, the
	// operation gets one final attempt, and then the last error is
	// surfaced even if MaxAttempts remain — callers with deadlines
	// bound their worst case in time, not in attempt counts whose
	// durations they cannot predict.
	MaxElapsed time.Duration
	// Jitter randomizes each delay by ±Jitter fraction so a fleet of
	// backed-off clients does not stampede in lockstep (0 = 0.2; use a
	// negative value for none).
	Jitter float64
	// Seed makes the jitter stream deterministic for replayable tests
	// (0 = 1).
	Seed int64
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// delay computes the backoff before attempt+1 (attempt counts from 1),
// exponential from BaseDelay, capped at MaxDelay, jittered by rng.
func (p RetryPolicy) delay(attempt int, rng *rand.Rand) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 5 * time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = time.Second
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	jit := p.Jitter
	if jit == 0 {
		jit = 0.2
	}
	if jit > 0 && rng != nil {
		span := float64(d) * jit
		d += time.Duration(rng.Float64()*2*span - span)
		if d < 0 {
			d = 0
		}
	}
	return d
}

// retryClass buckets an operation error by the recovery it permits.
type retryClass int

const (
	// rcFatal: retrying cannot help (verification failure, divergence,
	// semantic server error) — surface it.
	rcFatal retryClass = iota
	// rcBackoff: the connection is healthy but the server shed the
	// request; back off and resend.
	rcBackoff
	// rcReconnect: the transport is broken or out of sync; reconnect
	// (which re-anchors the summary stream) before resending.
	rcReconnect
)

// classify maps an operation error to its retry class. The guiding
// invariant: a fault may fail a request, but never widen what the
// client will accept — so anything cryptographic or semantic is fatal,
// and only transport-shaped failures are retried.
func classify(err error) retryClass {
	switch {
	case errors.Is(err, ErrDiverged):
		// Rollback evidence must never be retried away.
		return rcFatal
	case errors.Is(err, ErrConfig):
		// Bad arguments fail identically on every attempt.
		return rcFatal
	case errors.Is(err, ErrOverloaded):
		return rcBackoff
	case errors.Is(err, ErrBadFrame):
		// The server could not parse a request this client knows it
		// encoded correctly: in-flight corruption. Resend on a fresh
		// connection (the stream may be out of sync past the mangled
		// frame).
		return rcReconnect
	case errors.Is(err, ErrServer):
		// A decoded, semantically-meant server error (bad range, ...):
		// deterministic, not worth resending.
		return rcFatal
	case errors.Is(err, wire.ErrCorrupt):
		// The response stream is garbled; framing sync is gone.
		return rcReconnect
	default:
		// Dials, deadlines, resets, EOF — the transport failed.
		return rcReconnect
	}
}
