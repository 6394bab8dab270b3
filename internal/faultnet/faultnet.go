// Package faultnet injects deterministic, seedable network faults into
// net.Conn byte streams: connection drops and resets mid-frame, added
// latency, torn reads/writes (chunking), byte corruption, partial
// writes, and bandwidth caps (slow-loris shaping). It exists to promote
// the repo's adversary tests to the wire boundary — the paper's server
// is untrusted, and the network around it is no better — so the serving
// edge (server.NetServer + the verifying client) can be soaked under
// hostile conditions, in unit tests and in internal/server's chaos and
// fleet soaks.
//
// Fault decisions are drawn from a per-connection math/rand stream
// keyed by (profile seed, connection index), so a given topology
// replays the same fault schedule run over run; only wall-clock timing
// (sleeps) is non-deterministic.
package faultnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// ErrInjected marks failures this package manufactured, so tests can
// tell an injected reset from a genuine one.
var ErrInjected = errors.New("faultnet: injected fault")

// Profile parameterizes one fault regime. The zero value injects
// nothing (a transparent conn). Probabilities are per I/O operation.
type Profile struct {
	// Name labels the profile in reports and test output.
	Name string

	// DropProb resets the connection outright with this probability per
	// operation, modeling an abruptly killed peer or middlebox.
	DropProb float64

	// ResetAfter resets the connection once roughly this many bytes
	// have crossed it in either direction (0 = never). Because the cut
	// lands on a byte count, not a frame boundary, it tears frames in
	// half — the torn-write case the wire layer must fail loudly on.
	ResetAfter int64

	// DelayProb/DelayMin/DelayMax add a uniform random stall before an
	// operation with probability DelayProb, modeling jittery links.
	DelayProb float64
	DelayMin  time.Duration
	DelayMax  time.Duration

	// CorruptProb flips one random bit of a transferred chunk with this
	// probability per operation. The verifying client must convert
	// every such flip into a detected failure, never an accepted answer.
	CorruptProb float64

	// ChunkMax caps the bytes moved per Read/Write call (0 = no cap),
	// fragmenting frames across many operations so header/payload
	// boundaries land mid-read.
	ChunkMax int

	// PartialWriteProb delivers only a random prefix of a write and
	// then resets the connection, with this probability per write — the
	// classic torn frame.
	PartialWriteProb float64

	// BytesPerSec caps throughput in each direction (0 = unlimited),
	// modeling a slow or slow-lorising peer.
	BytesPerSec int
}

// Profiles returns the named fault regimes the chaos harness sweeps:
// drop, delay, corrupt, reset, slowloris. Parameters are tuned so a
// retrying client still completes work (goodput stays measurable)
// while every fault class fires many times per second of traffic.
func Profiles() []Profile {
	return []Profile{
		{Name: "drop", DropProb: 0.001, ChunkMax: 4096},
		{Name: "delay", DelayProb: 0.25, DelayMin: 100 * time.Microsecond, DelayMax: 2 * time.Millisecond},
		{Name: "corrupt", CorruptProb: 0.002, ChunkMax: 4096},
		{Name: "reset", ResetAfter: 256 << 10, PartialWriteProb: 0.0005, ChunkMax: 4096},
		{Name: "slowloris", BytesPerSec: 512 << 10, ChunkMax: 512},
	}
}

// Conn wraps a net.Conn with fault injection. Safe for one concurrent
// reader plus one concurrent writer (the net.Conn contract); fault
// state is shared across both directions under a mutex that is never
// held across blocking I/O.
type Conn struct {
	net.Conn
	prof Profile

	mu    sync.Mutex
	rng   *rand.Rand
	moved int64     // total bytes across both directions
	bwAt  time.Time // earliest instant the next bytes may move
	dead  bool
}

// Wrap returns conn with prof's faults injected, drawing decisions
// from a stream started from seed.
func Wrap(conn net.Conn, prof Profile, seed int64) *Conn {
	return &Conn{Conn: conn, prof: prof, rng: rand.New(rand.NewSource(seed))}
}

// reset kills the connection and records it as dead; every later
// operation fails fast.
func (c *Conn) resetLocked(cause string) error {
	c.dead = true
	c.Conn.Close()
	return fmt.Errorf("%w: %s after %d bytes", ErrInjected, cause, c.moved)
}

// preOp rolls the faults that precede an operation: fail-fast if dead,
// drop, byte-count reset, delay, and bandwidth pacing. It returns the
// stall to apply (sleeps happen outside the lock) and an error if the
// connection was reset.
func (c *Conn) preOp() (time.Duration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead {
		return 0, fmt.Errorf("%w: connection already reset", ErrInjected)
	}
	if p := c.prof.DropProb; p > 0 && c.rng.Float64() < p {
		return 0, c.resetLocked("drop")
	}
	if r := c.prof.ResetAfter; r > 0 && c.moved >= r {
		return 0, c.resetLocked("reset")
	}
	var stall time.Duration
	if p := c.prof.DelayProb; p > 0 && c.rng.Float64() < p {
		span := c.prof.DelayMax - c.prof.DelayMin
		stall = c.prof.DelayMin
		if span > 0 {
			stall += time.Duration(c.rng.Int63n(int64(span)))
		}
	}
	if c.prof.BytesPerSec > 0 {
		if wait := time.Until(c.bwAt); wait > stall {
			stall = wait
		}
	}
	return stall, nil
}

// postOp accounts n moved bytes: advances the bandwidth clock and the
// reset counter.
func (c *Conn) postOp(n int) {
	if n <= 0 {
		return
	}
	c.mu.Lock()
	c.moved += int64(n)
	if r := c.prof.BytesPerSec; r > 0 {
		at := c.bwAt
		if now := time.Now(); at.Before(now) {
			at = now
		}
		c.bwAt = at.Add(time.Duration(n) * time.Second / time.Duration(r))
	}
	c.mu.Unlock()
}

// corrupt flips one random bit of p under the profile's corruption
// probability, reporting whether it did.
func (c *Conn) corrupt(p []byte) bool {
	if c.prof.CorruptProb <= 0 || len(p) == 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rng.Float64() >= c.prof.CorruptProb {
		return false
	}
	p[c.rng.Intn(len(p))] ^= 1 << c.rng.Intn(8)
	return true
}

func (c *Conn) chunk(n int) int {
	if m := c.prof.ChunkMax; m > 0 && n > m {
		return m
	}
	return n
}

// Read applies the fault schedule, then reads at most one chunk.
func (c *Conn) Read(p []byte) (int, error) {
	stall, err := c.preOp()
	if err != nil {
		return 0, err
	}
	if stall > 0 {
		time.Sleep(stall)
	}
	n, err := c.Conn.Read(p[:c.chunk(len(p))])
	if n > 0 {
		c.corrupt(p[:n])
		c.postOp(n)
	}
	return n, err
}

// Write applies the fault schedule, then writes at most one chunk —
// callers relying on full writes (net.Conn users generally loop via
// io.Writer semantics; this Conn intentionally short-writes only when
// injecting a partial-write reset, otherwise it loops internally).
func (c *Conn) Write(p []byte) (int, error) {
	written := 0
	for written < len(p) {
		stall, err := c.preOp()
		if err != nil {
			return written, err
		}
		if stall > 0 {
			time.Sleep(stall)
		}
		end := written + c.chunk(len(p)-written)
		chunk := p[written:end]
		partial := false
		c.mu.Lock()
		if pr := c.prof.PartialWriteProb; pr > 0 && c.rng.Float64() < pr && len(chunk) > 1 {
			chunk = chunk[:1+c.rng.Intn(len(chunk)-1)]
			partial = true
		}
		c.mu.Unlock()
		// Writes must not mutate the caller's buffer: corrupt a copy.
		if c.prof.CorruptProb > 0 {
			tmp := make([]byte, len(chunk))
			copy(tmp, chunk)
			if c.corrupt(tmp) {
				chunk = tmp
			}
		}
		n, err := c.Conn.Write(chunk)
		c.postOp(n)
		written += n
		if err != nil {
			return written, err
		}
		if partial {
			c.mu.Lock()
			err := c.resetLocked("partial write")
			c.mu.Unlock()
			return written, err
		}
	}
	return written, nil
}

// Close closes the underlying connection.
func (c *Conn) Close() error {
	c.mu.Lock()
	c.dead = true
	c.mu.Unlock()
	return c.Conn.Close()
}

// connSeed derives connection i's decision-stream seed from the
// topology seed (splitmix-style odd-constant mixing).
func connSeed(seed, i int64) int64 {
	return int64(uint64(seed) ^ (uint64(i)+1)*0x9e3779b97f4a7c15)
}
