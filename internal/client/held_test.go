package client_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"authdb/internal/client"
	"authdb/internal/core"
	"authdb/internal/freshness"
	"authdb/internal/server"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/xortest"
	"authdb/internal/wire"
)

// heldCfg is the protocol of the held-store tests: short periods, and a
// renewal age short enough for RenewOld to re-sign records mid-schedule.
var heldCfg = core.Config{Rho: 100, RhoPrime: 1_000, Skew: 50}

// heldWorld is one relation — keys 10, 20, …, 10n, loaded at 1 — behind
// a loopback server.
type heldWorld struct {
	t    *testing.T
	sys  *core.Relation
	keys []int64 // the relation's keys, ascending
	addr string
	now  int64
}

func newHeldWorld(t *testing.T, n int) *heldWorld {
	t.Helper()
	cat, err := core.NewCatalog(xortest.New(), heldCfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := cat.AddRelation(core.DefaultRelation, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	w := &heldWorld{t: t, sys: sys, now: 1}
	recs := make([]*core.Record, n)
	for i := range recs {
		k := int64(i+1) * 10
		recs[i] = &core.Record{Key: k, Attrs: [][]byte{[]byte(fmt.Sprintf("v%d", k))}}
		w.keys = append(w.keys, k)
	}
	w.deliver(sys.DA.Load(recs, w.now))
	w.addr = serve(t, sys.QS)
	return w
}

// serve puts qs behind a loopback server.
func serve(t *testing.T, qs *core.QueryServer) string {
	t.Helper()
	srv := server.NewNetServer(qs, server.NetConfig{})
	ln, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return ln.Addr().String()
}

func (w *heldWorld) deliver(msg *core.UpdateMsg, err error) {
	w.t.Helper()
	if err != nil {
		w.t.Fatal(err)
	}
	if err := w.sys.Deliver(msg); err != nil {
		w.t.Fatal(err)
	}
}

// dial opens a session; held = false turns its held store off.
func (w *heldWorld) dial(addr string, held bool, now func() int64) *client.Client {
	w.t.Helper()
	cl, err := client.Dial(addr, client.Config{Scheme: w.sys.Scheme, Pub: w.sys.Pub, Protocol: heldCfg, Now: now})
	if err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(func() { cl.Close() })
	if !held {
		cl.SetHeldBudget(0)
	}
	return cl
}

// TestHeldAnswerConfirmedUnchanged: a bare scan's answer is held from its
// second sighting on; the third costs the summary tails alone, closes no
// claim, and returns the same chain with the same bound. An update the
// server applied makes it answer in full again, and the newer answer is
// held in place of the old one.
func TestHeldAnswerConfirmedUnchanged(t *testing.T) {
	w := newHeldWorld(t, 200)
	w.deliver(w.sys.DA.ClosePeriod(50))
	cl := w.dial(w.addr, true, nil)
	spec := leaf(300, 790)
	var got []*wire.Composite
	var st []client.Stats
	for i := 0; i < 3; i++ {
		comp, err := cl.QueryPlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		got, st = append(got, comp), append(st, cl.Stats())
	}
	if !reflect.DeepEqual(got[2].Outer, got[1].Outer) || got[2].Staleness != got[1].Staleness {
		t.Fatal("the held answer differs from the one it was admitted as")
	}
	if st[1].HeldHits != 0 || st[2].HeldHits != 1 || st[2].HeldBytes == 0 || st[0].HeldBytes != 0 {
		t.Fatalf("held after the second sighting, hit on the third: %+v", st)
	}
	if st[2].ClaimHits != st[1].ClaimHits || st[2].ClaimMisses != st[1].ClaimMisses {
		t.Fatalf("the held answer went through the claim memo: %+v -> %+v", st[1], st[2])
	}
	full, held := st[1].BytesIn-st[0].BytesIn, st[2].BytesIn-st[1].BytesIn
	if held*4 > full {
		t.Fatalf("a confirmed repeat cost %d bytes, a full answer %d", held, full)
	}
	// The server applies an update inside the range: its answer differs,
	// so it sends it whole, and that one is held from then on.
	w.deliver(w.sys.DA.Update(500, [][]byte{[]byte("new")}, 60))
	comp, err := cl.QueryPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(comp.Outer, got[2].Outer) {
		t.Fatal("the held answer survived an update the server applied")
	}
	if _, err := cl.QueryPlan(spec); err != nil {
		t.Fatal(err)
	}
	if s := cl.Stats(); s.HeldHits != 2 || s.HeldRefetches != 0 {
		t.Fatalf("the newer answer was not held in place of the old one: %+v", s)
	}
}

// TestUnchangedWithoutDigestRefused: an "unchanged" reply to a request
// that named no held answer confirms nothing the session holds. It is a
// malformed composite, verification-class evidence, so a fleet session
// quarantines the replica that sent it.
func TestUnchangedWithoutDigestRefused(t *testing.T) {
	w := newHeldWorld(t, 50)
	ts := newTamperSrv(t, w.addr)
	ts.ForgeFrames(func(frame []byte) []byte {
		comp, err := wire.DecodeComposite(frame)
		if err != nil {
			return nil
		}
		return wire.AppendRelTails(wire.AppendUnchanged(nil), comp.Tails)
	})
	cl := w.dial(ts.Addr(), true, nil)
	_, err := cl.QueryPlan(leaf(100, 200))
	if !errors.Is(err, client.ErrComposite) || !errors.Is(err, sigagg.ErrVerify) {
		t.Fatalf("an unchanged reply to a cold request: %v, want ErrComposite", err)
	}
	fleet, err := client.DialFleet([]string{ts.Addr(), w.addr}, client.Config{Scheme: w.sys.Scheme, Pub: w.sys.Pub, Protocol: heldCfg})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	if _, err := fleet.QueryPlan(leaf(100, 200)); err != nil {
		t.Fatalf("the fleet session did not fail over past the lying replica: %v", err)
	}
	if st := fleet.Stats(); st.Quarantines != 1 {
		t.Fatalf("%d quarantines, want the lying replica's", st.Quarantines)
	}
}

// unchangedFrom is a plan-reply rewrite: the "unchanged" form with the
// upstream's tails, or with none when withhold is set.
func unchangedFrom(resp []byte, withhold bool) []byte {
	comp, err := wire.DecodeComposite(resp)
	if err != nil {
		return resp
	}
	if withhold {
		return wire.AppendRelTails(wire.AppendUnchanged(nil), nil)
	}
	return wire.AppendRelTails(wire.AppendUnchanged(nil), comp.Tails)
}

// TestHeldAnswerJudgedLikeAFreshFetch is the adversary table of the held
// store. A session holds a range's answer; the owner then changes the
// range or its surroundings (an update, an insert inside the range or at
// its boundary, a delete, a renewal, or nothing), with or without closing
// the period, and with or without the session learning the newest
// summaries; and a front that lies "unchanged" to every request naming a
// held answer — with the honest summary tails, or withholding them —
// answers the next request for it. Beside it, a session with no held
// store gets the held answer's bytes in full, under the same tails, from
// a front replaying them. The held session must accept the held answer,
// with the same bound, exactly when the other accepts those bytes; and
// where the other proves them stale, it must drop the answer and fetch
// the current one within the same call.
func TestHeldAnswerJudgedLikeAFreshFetch(t *testing.T) {
	spec := leaf(200, 400)
	events := []struct {
		name string
		do   func(w *heldWorld)
	}{
		{"nothing", func(w *heldWorld) {}},
		{"update", func(w *heldWorld) { w.deliver(w.sys.DA.Update(300, [][]byte{[]byte("new")}, w.now)) }},
		{"insert inside", func(w *heldWorld) {
			w.deliver(w.sys.DA.Insert(&core.Record{Key: 305, Attrs: [][]byte{[]byte("ins")}}, w.now))
		}},
		{"insert at the boundary", func(w *heldWorld) {
			w.deliver(w.sys.DA.Insert(&core.Record{Key: 195, Attrs: [][]byte{[]byte("ins")}}, w.now))
		}},
		{"delete", func(w *heldWorld) { w.deliver(w.sys.DA.Delete(400, w.now)) }},
		{"renewal", func(w *heldWorld) {
			msg, n, err := w.sys.DA.RenewOld(w.now, 1_000)
			if err == nil && n == 0 {
				err = errors.New("nothing renewed")
			}
			w.deliver(msg, err)
		}},
	}
	accepted, refetched := 0, 0
	for _, ev := range events {
		for _, closed := range []bool{false, true} {
			for _, learn := range []bool{false, true} {
				for _, withhold := range []bool{false, true} {
					name := fmt.Sprintf("%s/closed=%v/learn=%v/withhold=%v", ev.name, closed, learn, withhold)
					t.Run(name, func(t *testing.T) {
						w := newHeldWorld(t, 60)
						w.now = 50
						w.deliver(w.sys.DA.ClosePeriod(w.now))
						lying, replaying := newTamperSrv(t, w.addr), newTamperSrv(t, w.addr)
						cl, ref := w.dial(lying.Addr(), true, nil), w.dial(replaying.Addr(), false, nil)
						var old *wire.Composite
						for i := 0; i < 2; i++ {
							var err error
							if old, err = cl.QueryPlan(spec); err != nil {
								t.Fatal(err)
							}
						}
						oldCore, err := wire.AppendCompositeCore(nil, &wire.Composite{Outer: old.Outer})
						if err != nil {
							t.Fatal(err)
						}
						for _, s := range []*client.Client{cl, ref} {
							if _, err := s.SyncSummaries(0); err != nil {
								t.Fatal(err)
							}
						}
						// Past the renewal age, so a renewal has records to re-sign.
						w.now = 1_200
						ev.do(w)
						if closed {
							w.now++
							w.deliver(w.sys.DA.ClosePeriod(w.now))
						}
						if learn {
							for _, s := range []*client.Client{cl, ref} {
								if _, err := s.SyncSummaries(0); err != nil {
									t.Fatal(err)
								}
							}
						}
						lying.OnPlan(func(held bool, resp []byte) []byte {
							if !held {
								return resp
							}
							return unchangedFrom(resp, withhold)
						})
						replaying.OnPlan(func(_ bool, resp []byte) []byte {
							comp, err := wire.DecodeComposite(resp)
							if err != nil {
								return resp
							}
							var tails []wire.RelTail
							if !withhold {
								tails = comp.Tails
							}
							return wire.AppendRelTails(append([]byte(nil), oldCore...), tails)
						})
						want, wantErr := ref.QueryPlan(spec)
						before := cl.Stats()
						got, err := cl.QueryPlan(spec)
						if err != nil {
							t.Fatalf("the held session: %v (the replayed bytes: %v)", err, wantErr)
						}
						st := cl.Stats()
						switch {
						case wantErr == nil:
							if !reflect.DeepEqual(got.Outer, want.Outer) || got.Staleness != want.Staleness || st.HeldHits != before.HeldHits+1 {
								t.Fatalf("the replayed bytes pass bounded %d, the held session returned %d records bounded %d (%+v)",
									want.Staleness, len(got.Outer.Records), got.Staleness, st)
							}
							accepted++
						case errors.Is(wantErr, freshness.ErrStale):
							current, err := w.dial(w.addr, false, nil).QueryPlan(spec)
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(got.Outer, current.Outer) || st.HeldRefetches != before.HeldRefetches+1 {
								t.Fatalf("the replayed bytes are stale, but the held session did not fetch the current answer (%+v)", st)
							}
							refetched++
						default:
							t.Fatalf("the replayed bytes: %v", wantErr)
						}
					})
				}
			}
		}
	}
	// Both sides of the table must be exercised.
	if !t.Failed() && (accepted == 0 || refetched == 0) {
		t.Fatalf("%d cases accepted the held answer, %d fetched it again", accepted, refetched)
	}
}

// TestFrozenServerRefusedWithinRhoPlusSkew: a server that stops applying
// its feed while the owner goes on closing periods, and a front before it
// that answers every request naming a held answer "unchanged" with no
// tails at all. A clocked session refuses either once ρ + δ have passed
// since the first close the server withheld: a cold session, and a warm
// one that held the range's answer while the server was live.
func TestFrozenServerRefusedWithinRhoPlusSkew(t *testing.T) {
	spec := leaf(200, 400)
	for _, front := range []string{"full", "unchanged"} {
		for _, warm := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/warm=%v", front, warm), func(t *testing.T) {
				w := newHeldWorld(t, 60)
				w.now = 100
				w.deliver(w.sys.DA.ClosePeriod(w.now))
				ts := newTamperSrv(t, w.addr)
				if front == "unchanged" {
					ts.OnPlan(func(held bool, resp []byte) []byte {
						if !held {
							return resp
						}
						return unchangedFrom(resp, true)
					})
				}
				clock := w.now
				cl := w.dial(ts.Addr(), true, func() int64 { return clock })
				if warm {
					for i := 0; i < 3; i++ {
						if _, err := cl.QueryPlan(spec); err != nil {
							t.Fatal(err)
						}
					}
					if st := cl.Stats(); front == "unchanged" && st.HeldHits == 0 {
						t.Fatalf("the warm session holds nothing: %+v", st)
					}
				}
				// The owner updates the range and closes on schedule; none
				// of it reaches the server.
				if _, err := w.sys.DA.Update(300, [][]byte{[]byte("new")}, w.now+10); err != nil {
					t.Fatal(err)
				}
				firstWithheld := w.now + heldCfg.Rho
				for ts := firstWithheld; ts <= w.now+20*heldCfg.Rho; ts += heldCfg.Rho {
					if _, err := w.sys.DA.ClosePeriod(ts); err != nil {
						t.Fatal(err)
					}
				}
				clock = firstWithheld + heldCfg.Rho + heldCfg.Skew
				_, err := cl.QueryPlan(spec)
				if !errors.Is(err, freshness.ErrStale) {
					t.Fatalf("ρ + δ past the first withheld close: %v, want ErrStale", err)
				}
			})
		}
	}
}

// TestHeldStoreMatchesFetchingSession is the held store's differential
// oracle. A seeded schedule of owner operations — updates, inserts inside
// the hot ranges and at their boundaries, deletes, renewals and period
// closes — runs against a server and a lagging replica of it fed the same
// messages late; after every operation a session with the held store and
// one without ask the same server for the same hot ranges, some of them
// twice, under the same clock. The two must return the same records with
// the same bounds, and be refused as stale exactly together.
func TestHeldStoreMatchesFetchingSession(t *testing.T) {
	seeds, steps := 6, 120
	if testing.Short() || raceEnabled {
		seeds = 2
	}
	var hits, refetches, accepted, stale int
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			w := newHeldWorld(t, 80)
			lagQS := core.NewQueryServer(w.sys.Scheme)
			var backlog []*core.UpdateMsg
			if err := lagQS.Restore(w.sys.QS.Snapshot()); err != nil {
				t.Fatal(err)
			}
			lagAddr := serve(t, lagQS)
			owner := func(msg *core.UpdateMsg, err error) {
				t.Helper()
				w.deliver(msg, err)
				backlog = append(backlog, msg)
			}
			clock := func() int64 { return w.now }
			held, bare := w.dial(w.addr, true, clock), w.dial(w.addr, false, clock)
			at := w.addr
			var hot [][2]int64
			for i := 0; i < 5; i++ {
				lo := int64(10 + rng.Intn(600))
				hot = append(hot, [2]int64{lo, lo + int64(20+rng.Intn(100))})
			}
			for step := 0; step < steps; step++ {
				w.now += int64(5 + rng.Intn(40))
				rg := hot[rng.Intn(len(hot))]
				switch op := rng.Intn(12); {
				case op < 3: // update inside a hot range
					if i, ok := keyIn(w.keys, rg, rng); ok {
						owner(w.sys.DA.Update(w.keys[i], [][]byte{[]byte(fmt.Sprintf("u%d", step))}, w.now))
					}
				case op < 5: // insert inside a hot range (3), or just outside its edge (4)
					k := rg[0] + rng.Int63n(rg[1]-rg[0]+1)
					if op == 4 {
						k = rg[0] - 1 - rng.Int63n(5)
						if rng.Intn(2) == 0 {
							k = rg[1] + 1 + rng.Int63n(5)
						}
					}
					if _, present := slices.BinarySearch(w.keys, k); !present && k > 0 {
						owner(w.sys.DA.Insert(&core.Record{Key: k, Attrs: [][]byte{[]byte("ins")}}, w.now))
						w.keys = insertSorted(w.keys, k)
					}
				case op < 6: // delete inside a hot range
					if i, ok := keyIn(w.keys, rg, rng); ok && len(w.keys) > 40 {
						owner(w.sys.DA.Delete(w.keys[i], w.now))
						w.keys = slices.Delete(w.keys, i, i+1)
					}
				case op < 7:
					msg, _, err := w.sys.DA.RenewOld(w.now, 8)
					if msg != nil || err != nil {
						owner(msg, err)
					}
				default:
					owner(w.sys.DA.ClosePeriod(w.now))
				}
				// The replica catches up on some of its backlog.
				for n := rng.Intn(len(backlog) + 1); n > 0; n-- {
					if err := lagQS.Apply(backlog[0]); err != nil {
						t.Fatal(err)
					}
					backlog = backlog[1:]
				}
				if target := w.addr; rng.Intn(4) == 0 || (at == lagAddr && rng.Intn(2) == 0) {
					if at == w.addr {
						target = lagAddr
					}
					for _, s := range []*client.Client{held, bare} {
						if err := s.Reconnect(target); err != nil {
							t.Fatalf("step %d: reconnect: %v", step, err)
						}
					}
					at = target
				}
				for q, n := 0, 1+rng.Intn(3); q < n; q++ {
					rg := hot[rng.Intn(len(hot))]
					spec := leaf(rg[0], rg[1])
					want, wantErr := bare.QueryPlan(spec)
					got, err := held.QueryPlan(spec)
					if (err == nil) != (wantErr == nil) || errors.Is(err, freshness.ErrStale) != errors.Is(wantErr, freshness.ErrStale) {
						t.Fatalf("step %d, [%d,%d]: the held session says %v, the fetching one %v", step, rg[0], rg[1], err, wantErr)
					}
					if wantErr != nil {
						if !errors.Is(wantErr, freshness.ErrStale) {
							t.Fatalf("step %d, [%d,%d]: %v", step, rg[0], rg[1], wantErr)
						}
						stale++
						continue
					}
					if !reflect.DeepEqual(got.Outer, want.Outer) || got.Staleness != want.Staleness {
						t.Fatalf("step %d, [%d,%d]: the held session returned %d records bounded %d, the fetching one %d bounded %d",
							step, rg[0], rg[1], len(got.Outer.Records), got.Staleness, len(want.Outer.Records), want.Staleness)
					}
					accepted++
				}
			}
			st := held.Stats()
			hits += int(st.HeldHits)
			refetches += int(st.HeldRefetches)
		})
	}
	t.Logf("%d answers alike, %d refused alike as stale; the held session: %d confirmed unchanged, %d fetched again",
		accepted, stale, hits, refetches)
	if !t.Failed() && (hits == 0 || refetches == 0 || stale == 0) {
		t.Fatal("the schedule exercised too little of the held store")
	}
}

// keyIn picks a key of keys inside rg.
func keyIn(keys []int64, rg [2]int64, rng *rand.Rand) (int, bool) {
	lo, _ := slices.BinarySearch(keys, rg[0])
	hi, _ := slices.BinarySearch(keys, rg[1]+1)
	if lo >= hi {
		return 0, false
	}
	return lo + rng.Intn(hi-lo), true
}

func insertSorted(keys []int64, k int64) []int64 {
	i, _ := slices.BinarySearch(keys, k)
	return slices.Insert(keys, i, k)
}
