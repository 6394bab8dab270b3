package client_test

import (
	"errors"
	"net"
	"sync"
	"testing"

	"authdb/internal/client"
	"authdb/internal/core"
	"authdb/internal/freshness"
	"authdb/internal/sigagg"
	"authdb/internal/wire"
)

// forgery rewrites one decoded composite answer in place and reports
// whether it found anything to tamper with. Every forgery is written
// against the composite, so it applies to whatever plan the frame answers
// — a range selection's answer is the composite with no operator
// sections.
type forgery func(*wire.Composite) bool

// frameForgery rewrites one encoded 'C' frame and returns the forged
// frame, or nil when it found nothing to tamper with: for what a decoded
// composite cannot express, because the decoder refuses it or the
// encoder cannot write it.
type frameForgery func(frame []byte) []byte

// onFrame is fn applied to a frame: decode, rewrite, re-encode.
func onFrame(fn forgery) frameForgery {
	if fn == nil {
		return nil
	}
	return func(frame []byte) []byte {
		comp, err := wire.DecodeComposite(frame)
		if err != nil || !fn(comp) {
			return nil
		}
		out, err := wire.AppendCompositeCore(nil, comp)
		if err != nil {
			return nil
		}
		return wire.AppendRelTails(out, comp.Tails)
	}
}

// tamperSigFlip flips a bit of the scan's aggregate signature.
func tamperSigFlip(comp *wire.Composite) bool {
	if len(comp.Outer.Agg) == 0 {
		return false
	}
	comp.Outer.Agg[0] ^= 0x01
	return true
}

// tamperRowSwap reorders the scan's records.
func tamperRowSwap(comp *wire.Composite) bool {
	r := comp.Outer.Records
	if len(r) < 2 {
		return false
	}
	r[0], r[1] = r[1], r[0]
	return true
}

// tamperSrv is a Byzantine replica front: a frame-aware
// man-in-the-middle that decodes real 'C' responses from an honest
// upstream, applies a forgery, and re-encodes — so everything it sends
// is syntactically perfect protocol and only the cryptography can catch
// it — or, given a frame forgery, rewrites the bytes themselves. In
// replay mode it answers from responses captured before an
// update, without consulting the upstream at all (the paper's
// stale-publisher attack). It relays in request/response lock-step, which
// a pipelining client cannot tell from a server.
type tamperSrv struct {
	ln       net.Listener
	upstream string

	mu     sync.Mutex
	forge  frameForgery    // nil = relay honestly
	skip   int             // composites still to relay untouched before forge applies…
	once   bool            // …to one composite only
	replay bool            // re-serve the first captured response per request kind
	cached map[byte][]byte // first captured response per request kind
	// onPlan, when set, rewrites every 'C' reply to a plan request, told
	// whether the request named a held answer. The upstream is then asked
	// for the whole answer, so the rewrite has a core and tails to work on.
	onPlan func(held bool, resp []byte) []byte
}

func newTamperSrv(t testing.TB, upstream string) *tamperSrv {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts := &tamperSrv{ln: ln, upstream: upstream, cached: make(map[byte][]byte)}
	go ts.acceptLoop()
	t.Cleanup(func() { ln.Close() })
	return ts
}

func (ts *tamperSrv) Addr() string { return ts.ln.Addr().String() }

// Forge applies fn to every composite relayed from now on (nil restores
// honest relaying).
func (ts *tamperSrv) Forge(fn forgery) { ts.ForgeFrames(onFrame(fn)) }

// ForgeFrames is Forge for a forgery of the encoded frame.
func (ts *tamperSrv) ForgeFrames(fn frameForgery) {
	ts.mu.Lock()
	ts.forge, ts.skip, ts.once = fn, 0, false
	ts.mu.Unlock()
}

// ForgeNth applies fn to the n-th composite frame relayed from now on
// (counting from 1) and to no other.
func (ts *tamperSrv) ForgeNth(n int, fn frameForgery) {
	ts.mu.Lock()
	ts.forge, ts.skip, ts.once = fn, n-1, true
	ts.mu.Unlock()
}

// Replay re-serves, per request kind, the first response captured.
func (ts *tamperSrv) Replay() {
	ts.mu.Lock()
	ts.replay = true
	ts.mu.Unlock()
}

func (ts *tamperSrv) acceptLoop() {
	for {
		down, err := ts.ln.Accept()
		if err != nil {
			return
		}
		go ts.serve(down)
	}
}

// serve relays one downstream session in request/response lock-step.
func (ts *tamperSrv) serve(down net.Conn) {
	defer down.Close()
	up, err := net.Dial("tcp", ts.upstream)
	if err != nil {
		return
	}
	defer up.Close()
	var req, resp []byte
	for {
		if req, err = wire.ReadFrame(down, req, 0); err != nil {
			return
		}
		reqKind, err := wire.Kind(req)
		if err != nil {
			return
		}
		ts.mu.Lock()
		var replayed []byte
		if ts.replay {
			replayed = ts.cached[reqKind]
		}
		forging, onPlan := ts.forge != nil, ts.onPlan
		ts.mu.Unlock()
		held := false
		if (forging || onPlan != nil) && reqKind == wire.KindPlan {
			// A forger needs an answer to forge: it asks the upstream for the
			// whole one, not whether the session's held answer stands.
			req, held = stripHeld(req)
		}
		if replayed != nil {
			// Pure replay: the upstream is never asked; the client gets
			// yesterday's truth, faithfully signed.
			if err := wire.WriteFrame(down, replayed); err != nil {
				return
			}
			continue
		}
		if err := wire.WriteFrame(up, req); err != nil {
			return
		}
		if resp, err = wire.ReadFrame(up, resp, 0); err != nil {
			return
		}
		ts.mu.Lock()
		if _, dup := ts.cached[reqKind]; !dup {
			ts.cached[reqKind] = append([]byte(nil), resp...)
		}
		ts.mu.Unlock()
		out := ts.mutate(resp)
		if kind, err := wire.Kind(resp); onPlan != nil && err == nil && kind == wire.KindComposite {
			out = onPlan(held, resp)
		}
		if err := wire.WriteFrame(down, out); err != nil {
			return
		}
	}
}

// stripHeld re-encodes a plan request without the held answer's digest,
// reporting whether it named one.
func stripHeld(req []byte) ([]byte, bool) {
	plan, since, held, err := wire.DecodePlanReq(req, nil)
	if err != nil || held == 0 {
		return req, false
	}
	return wire.AppendPlanReq(nil, plan, since, 0), true
}

// OnPlan installs a rewrite of plan replies (nil restores relaying).
func (ts *tamperSrv) OnPlan(fn func(held bool, resp []byte) []byte) {
	ts.mu.Lock()
	ts.onPlan = fn
	ts.mu.Unlock()
}

// mutate applies the forgery in force to one response frame.
func (ts *tamperSrv) mutate(frame []byte) []byte {
	if kind, err := wire.Kind(frame); err != nil || kind != wire.KindComposite {
		return frame
	}
	ts.mu.Lock()
	fn := ts.forge
	switch {
	case fn == nil:
	case ts.skip > 0:
		ts.skip--
		fn = nil
	case ts.once:
		ts.forge = nil
	}
	ts.mu.Unlock()
	if fn == nil {
		return frame
	}
	if out := fn(frame); out != nil {
		return out
	}
	return frame
}

// advance publishes one update to the queried range plus a certified
// period close, so replayed answers become provably stale.
func advance(t *testing.T, sys *core.Relation, key int64, ts int64) {
	t.Helper()
	msg, err := sys.DA.Update(key, [][]byte{[]byte("post-capture")}, ts)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.QS.Apply(msg); err != nil {
		t.Fatal(err)
	}
	sum, err := sys.DA.ClosePeriod(ts + 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.QS.Apply(sum); err != nil {
		t.Fatal(err)
	}
}

// memoStates are how much of the honest answer a session remembers when
// the forgery of it arrives: nothing (cold), its claims by digest name
// (warm: it verified the honest answer once), or by content name (warm
// twice: it verified it again, which renamed the memo entries; core's
// claimmemo.go). Every tamper case runs against all three.
var memoStates = []string{"cold", "warm", "warm twice"}

// forgingReplica runs one forging mode against a session in each memo
// state: the forgery is the first thing the session sees, or the same
// session has just fetched and verified the honest answer through the
// same front once or twice, so its verifier remembers the honest claim
// when the forgery of it arrives. Either way nothing forged may be
// accepted, and the failure must be verification-class evidence.
func forgingReplica(t *testing.T, mode forgery, what string) {
	for honest, name := range memoStates {
		t.Run(name, func(t *testing.T) {
			sys, keys, addr := fixture(t, 200)
			ts := newTamperSrv(t, addr)
			cl, err := client.Dial(ts.Addr(), client.Config{Scheme: sys.Scheme, Pub: sys.Pub})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			for i := 0; i < honest; i++ {
				if _, err := cl.QueryPlan(leaf(keys[5], keys[40])); err != nil {
					t.Fatal(err)
				}
			}
			warm := cl.Stats()
			ts.Forge(mode)
			for i := 0; i < 2; i++ { // a forgery does not become true by repetition
				_, err = cl.QueryPlan(leaf(keys[5], keys[40]))
				if err == nil {
					t.Fatalf("%s accepted", what)
				}
				if !errors.Is(err, sigagg.ErrVerify) {
					t.Fatalf("%s surfaced as %v, want sigagg.ErrVerify", what, err)
				}
			}
			if st := cl.Stats(); st.Verified != uint64(honest) || st.ClaimHits != warm.ClaimHits || st.ContentHits != 0 {
				t.Fatalf("against a forging replica: %d answers verified (%d honest), %d claims served from memory (%d before the forgeries)",
					st.Verified, honest, st.ClaimHits, warm.ClaimHits)
			}
		})
	}
}

// TestAdversarySigFlipNeverAccepted: a replica that bit-flips the
// aggregate signature — everything else intact — fails verification,
// and the flip is recognized as replica misbehavior, not transport
// noise that retries could wave through.
func TestAdversarySigFlipNeverAccepted(t *testing.T) {
	forgingReplica(t, tamperSigFlip, "forged signature")
}

// TestAdversaryRowSwapNeverAccepted: reordering two records — a
// completeness attack leaving every byte individually authentic —
// breaks the chained digests.
func TestAdversaryRowSwapNeverAccepted(t *testing.T) {
	forgingReplica(t, tamperRowSwap, "reordered answer")
}

// TestAdversaryStaleReplayDetected: a replica that re-serves
// pre-update cached answers — perfectly signed, just old — is caught
// by the freshness machinery: the session's held summaries prove a
// newer version of the answered records exists. The session that
// verified the answer twice while it was current remembers its signature
// claim by content (the replay costs it no curve arithmetic and no
// digest) and rejects it all the same; so does a session that never saw
// it.
func TestAdversaryStaleReplayDetected(t *testing.T) {
	sys, keys, addr := fixture(t, 200)
	// One closed period so the capture-phase answer carries summaries.
	sum, err := sys.DA.ClosePeriod(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.QS.Apply(sum); err != nil {
		t.Fatal(err)
	}
	ts := newTamperSrv(t, addr)
	cl, err := client.Dial(ts.Addr(), client.Config{Scheme: sys.Scheme, Pub: sys.Pub})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Capture phase: honest pass-through; the adversary records the
	// response. Twice: the second sighting renames the claim by content.
	for i := 0; i < 2; i++ {
		if _, err := cl.QueryPlan(leaf(keys[5], keys[40])); err != nil {
			t.Fatal(err)
		}
	}
	// The world moves on: a record in the range changes, a new period
	// certifies it, and the session learns the new summary.
	advance(t, sys, keys[10], 3)
	if _, err := cl.SyncSummaries(0); err != nil {
		t.Fatal(err)
	}
	// Replay phase: the adversary serves the pre-update answer.
	ts.Replay()
	_, err = cl.QueryPlan(leaf(keys[5], keys[40]))
	if err == nil {
		t.Fatal("replayed pre-update answer accepted as fresh")
	}
	if !errors.Is(err, freshness.ErrStale) {
		t.Fatalf("stale replay surfaced as %v, want freshness.ErrStale", err)
	}
	if st := cl.Stats(); st.ClaimHits != 2 || st.ContentHits != 1 || st.Verified != 2 {
		t.Fatalf("the replayed claim was not known by its content: %+v", st)
	}
	// A cold session: the front replays its 'F' page (captured after the
	// update) and the pre-update answer.
	cold, err := client.Dial(ts.Addr(), client.Config{Scheme: sys.Scheme, Pub: sys.Pub})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	if _, err := cold.SyncSummaries(0); err != nil {
		t.Fatal(err)
	}
	if _, err := cold.QueryPlan(leaf(keys[5], keys[40])); !errors.Is(err, freshness.ErrStale) {
		t.Fatalf("stale replay to a cold session surfaced as %v, want freshness.ErrStale", err)
	}
	if st := cold.Stats(); st.ClaimHits != 0 || st.ClaimMisses != 1 {
		t.Fatalf("the cold session's counters: %+v", st)
	}
}

// TestAdversaryReplayedSummariesDetected: replaying the summary stream
// itself (stale 'F' responses) cannot hide an update from a session
// that already holds the newer summary — ingestion only moves forward,
// so the replay is inert and the stale answers it accompanies still
// trip ErrStale.
func TestAdversaryReplayedSummariesDetected(t *testing.T) {
	sys, keys, addr := fixture(t, 200)
	sum, err := sys.DA.ClosePeriod(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.QS.Apply(sum); err != nil {
		t.Fatal(err)
	}
	ts := newTamperSrv(t, addr)
	cl, err := client.Dial(ts.Addr(), client.Config{Scheme: sys.Scheme, Pub: sys.Pub})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Capture an 'F' page and a 'C' answer pre-update.
	if _, err := cl.SyncSummaries(0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.QueryPlan(leaf(keys[5], keys[40])); err != nil {
		t.Fatal(err)
	}
	held := cl.SummaryCount()
	advance(t, sys, keys[10], 3)
	if _, err := cl.SyncSummaries(0); err != nil {
		t.Fatal(err)
	}
	if cl.SummaryCount() <= held {
		t.Fatal("fixture: session never learned the post-update summary")
	}
	ts.Replay()
	// The replayed 'F' page is the pre-update stream: already held,
	// ingesting it again is a no-op — the anchor never rolls back.
	if _, err := cl.SyncSummaries(0); err != nil {
		t.Fatalf("replayed old summaries must be inert, got %v", err)
	}
	if cl.SummaryCount() != held+1 {
		t.Fatalf("summary count moved under replay: %d", cl.SummaryCount())
	}
	// And the replayed stale answer is still caught.
	if _, err := cl.QueryPlan(leaf(keys[5], keys[40])); !errors.Is(err, freshness.ErrStale) {
		t.Fatalf("stale replay surfaced as %v, want freshness.ErrStale", err)
	}
}
