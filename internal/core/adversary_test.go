package core

import (
	"errors"
	"testing"

	"authdb/internal/chain"
	"authdb/internal/freshness"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
)

// TestAdversary drives a catalogue of server-side attacks against a
// single honest answer and requires every one to be rejected. This is
// the threat model of §1: the query server is untrusted or compromised,
// while the data aggregator's public key is authentic. Every attack runs
// in each memo state (memoStates): against a verifier that has seen
// nothing, and against one that has verified the honest answer the
// forgery was made from once or twice — and so remembers its claim by
// digest or by content name.
func TestAdversary(t *testing.T) {
	attacks := []struct {
		name   string
		mutate func(*Answer) // mutates a fresh honest answer for [250,500]
	}{
		{"tamper attribute value", func(a *Answer) {
			r := *a.Chain.Records[2]
			r.Attrs = [][]byte{[]byte("forged")}
			a.Chain.Records[2] = &r
		}},
		{"tamper key", func(a *Answer) {
			r := *a.Chain.Records[2]
			r.Key += 1
			a.Chain.Records[2] = &r
		}},
		{"tamper rid", func(a *Answer) {
			r := *a.Chain.Records[2]
			r.RID += 7
			a.Chain.Records[2] = &r
		}},
		{"advance timestamp (freshness forgery)", func(a *Answer) {
			r := *a.Chain.Records[2]
			r.TS += 5_000
			a.Chain.Records[2] = &r
		}},
		{"drop interior record", func(a *Answer) {
			a.Chain.Records = append(a.Chain.Records[:3:3], a.Chain.Records[4:]...)
		}},
		{"drop first record", func(a *Answer) {
			a.Chain.Records = a.Chain.Records[1:]
		}},
		{"drop last record", func(a *Answer) {
			a.Chain.Records = a.Chain.Records[:len(a.Chain.Records)-1]
		}},
		{"duplicate a record", func(a *Answer) {
			a.Chain.Records = append(a.Chain.Records, a.Chain.Records[0])
		}},
		{"reorder records", func(a *Answer) {
			a.Chain.Records[0], a.Chain.Records[1] = a.Chain.Records[1], a.Chain.Records[0]
		}},
		{"shrink left boundary", func(a *Answer) {
			a.Chain.Left = chain.Ref{Key: a.Chain.Records[0].Key - 1, RID: 999}
		}},
		{"shrink right boundary", func(a *Answer) {
			last := a.Chain.Records[len(a.Chain.Records)-1]
			a.Chain.Right = chain.Ref{Key: last.Key + 1, RID: 999}
		}},
		{"claim domain edge", func(a *Answer) {
			a.Chain.Left = chain.MinRef
		}},
		{"zero the aggregate", func(a *Answer) {
			a.Chain.Agg = make(sigagg.Signature, len(a.Chain.Agg))
		}},
		{"flip a bit in the aggregate", func(a *Answer) {
			a.Chain.Agg = a.Chain.Agg.Clone()
			a.Chain.Agg[0] ^= 0x01
		}},
		{"swap attrs between records", func(a *Answer) {
			r0, r1 := *a.Chain.Records[0], *a.Chain.Records[1]
			r0.Attrs, r1.Attrs = r1.Attrs, r0.Attrs
			a.Chain.Records[0], a.Chain.Records[1] = &r0, &r1
		}},
		{"present as wrong range", func(a *Answer) {
			a.Chain.Lo, a.Chain.Hi = 100, 900
		}},
		{"truncate summaries to hide an update", func(a *Answer) {
			// Alone this is detected as a gap when the verifier has
			// already seen newer summaries; here it must at minimum not
			// let a stale record through. The stale scenario is covered
			// by TestFreshnessStaleDetection; here we just forge the
			// summary bytes. A verifier that holds summary 1 compares the
			// re-sent copy with it.
			if len(a.Summaries) > 0 {
				a.Summaries[0].Compressed = append([]byte{}, a.Summaries[0].Compressed...)
				a.Summaries[0].Compressed[0] ^= 0x01
			} else {
				a.Chain.Agg[0] ^= 0x01
			}
		}},
	}

	for _, atk := range attacks {
		t.Run(atk.name, func(t *testing.T) {
			for _, st := range memoStates {
				t.Run(st.name, func(t *testing.T) {
					sys := newSystem(t, bas.New(0))
					load(t, sys, 100)
					// Publish a summary so answers carry one.
					msg, err := sys.DA.ClosePeriod(1_000)
					if err != nil {
						t.Fatal(err)
					}
					if err := sys.Deliver(msg); err != nil {
						t.Fatal(err)
					}
					ans, err := scan(sys.QS, 250, 500)
					if err != nil {
						t.Fatal(err)
					}
					v := NewVerifier(sys.Scheme, sys.Pub, DefaultConfig())
					st.warm(t, v, func() error {
						_, err := verifyScan(v, ans, 250, 500, 1_100)
						return err
					})
					fresh, err := scan(sys.QS, 250, 500)
					if err != nil {
						t.Fatal(err)
					}
					atk.mutate(fresh)
					if _, err := verifyScan(v, fresh, 250, 500, 1_100); err == nil {
						t.Fatalf("attack %q went undetected by a verifier %s", atk.name, st.what)
					}
				})
			}
		})
	}
}

// memoState is how much of the honest answer a verifier remembers when
// the forgery of it arrives: nothing (cold), its claim by digest name
// (warm: it closed the honest answer once), or by content name (warm
// twice: it closed it again, which renamed the memo entry). Every tamper
// case runs against all three (claimmemo.go).
type memoState struct {
	name, what string
	honest     int // times the honest answer is verified before the forgery
}

var memoStates = []memoState{
	{"cold", "that remembers nothing", 0},
	{"warm", "that remembers the honest claim by its digests", 1},
	{"warm twice", "that remembers the honest claim by its content", 2},
}

// warm verifies the honest answer st.honest times through verify and
// checks v's memo then holds its claim under the state's name.
func (st memoState) warm(t *testing.T, v *Verifier, verify func() error) {
	t.Helper()
	for i := 0; i < st.honest; i++ {
		if err := verify(); err != nil {
			t.Fatalf("honest answer rejected (verification %d): %v", i+1, err)
		}
	}
	cs := v.ClaimStats()
	if st.honest > 0 && (cs.ClaimMisses == 0 || cs.ClaimHits < uint64(st.honest-1) || cs.ContentHits != 0) {
		t.Fatalf("fixture: %d honest verifications left the memo at %+v", st.honest, cs)
	}
}

// TestAdversaryEmptyAnswer attacks the anchored empty-answer proof.
func TestAdversaryEmptyAnswer(t *testing.T) {
	sys := newSystem(t, bas.New(0))
	load(t, sys, 20)                      // keys 10..200
	honest, err := scan(sys.QS, 105, 109) // gap between 100 and 110
	if err != nil {
		t.Fatal(err)
	}
	if honest.Chain.Anchor == nil {
		t.Fatal("expected anchored empty answer")
	}
	for _, st := range memoStates {
		verifier := NewVerifier(sys.Scheme, sys.Pub, DefaultConfig())
		st.warm(t, verifier, func() error {
			_, err := verifyScan(verifier, honest, 105, 109, 200)
			return err
		})
		// Attack 1: claim a populated range [100,110] is empty using the
		// anchor for the adjacent gap. (The claim is the honest one — same
		// anchor digest, same aggregate — so a warm verifier's memo holds
		// it: only the structural check stands in the way.)
		fake := *honest
		fakeChain := *honest.Chain
		fakeChain.Lo, fakeChain.Hi = 95, 115
		fake.Chain = &fakeChain
		if _, err := verifyScan(verifier, &fake, 95, 115, 200); err == nil {
			t.Fatalf("a verifier %s: fake empty range accepted", st.what)
		}

		// Attack 2: widen the anchor's right reference to swallow a record.
		fake2chain := *honest.Chain
		fake2chain.Right = chain.Ref{Key: 130, RID: 13}
		fake2chain.Lo, fake2chain.Hi = 105, 125
		fake2 := Answer{Chain: &fake2chain, Summaries: honest.Summaries}
		if _, err := verifyScan(verifier, &fake2, 105, 125, 200); err == nil {
			t.Fatalf("a verifier %s: widened anchor accepted", st.what)
		}
	}
}

// TestAdversaryReplayOldAnswer covers the full replay path: an answer
// that was valid before an update must fail freshness once summaries
// advance past it — for a verifier that never saw it while it was
// current, and for one that verified it then once or twice, and so
// remembers its claim by digest or by content name (the replay costs it
// no curve arithmetic, and no digest either).
func TestAdversaryReplayOldAnswer(t *testing.T) {
	for _, st := range memoStates {
		t.Run(st.name, func(t *testing.T) {
			sys := newSystem(t, bas.New(0))
			load(t, sys, 50)
			deliver := deliverOp(t, sys)
			deliver(sys.DA.ClosePeriod(1_000))
			old, err := scan(sys.QS, 100, 120)
			if err != nil {
				t.Fatal(err)
			}
			v := NewVerifier(sys.Scheme, sys.Pub, DefaultConfig())
			st.warm(t, v, func() error {
				_, err := verifyScan(v, old, 100, 120, 1_100)
				return err
			})
			deliver(sys.DA.Update(110, [][]byte{[]byte("v2")}, 1_500))
			deliver(sys.DA.ClosePeriod(2_000))
			for _, s := range sys.QS.SummariesTail(0, 0) {
				if held, _ := v.LatestSummary(); s.Seq > held.Seq {
					if err := v.IngestSummary(s); err != nil {
						t.Fatal(err)
					}
				}
			}
			before := v.ClaimStats()
			if _, err := verifyScan(v, old, 100, 120, 2_100); !errors.Is(err, freshness.ErrStale) {
				t.Fatalf("replayed pre-update answer to a verifier %s: want ErrStale, got %v", st.what, err)
			}
			after := v.ClaimStats()
			if st.honest == 2 && after.ContentHits != before.ContentHits+1 {
				t.Fatalf("the replay was not a content hit: %+v -> %+v", before, after)
			}
		})
	}
}

// TestAdversaryDeletedInItsOwnPeriod: a record inserted or updated and
// then deleted within one period is marked only in that period, where a
// mark reads as the version itself. A server that withholds the delete
// and forwards only the summaries keeps serving that last version; it
// must be refused once the next period closes — by a verifier that never
// saw it while it was current, and by one that closed it then once or
// twice. Before the owner marked such a slot again a period later, the
// version passed as fresh forever.
func TestAdversaryDeletedInItsOwnPeriod(t *testing.T) {
	for _, sc := range []struct {
		name string
		// certify certifies key 255 at 1100, in the period after 1000's close.
		certify func(sys *Relation, deliver func(*UpdateMsg, error))
	}{
		{"insert then delete", func(sys *Relation, deliver func(*UpdateMsg, error)) {
			deliver(sys.DA.ClosePeriod(1_000))
			deliver(sys.DA.Insert(&Record{Key: 255, Attrs: [][]byte{[]byte("new")}}, 1_100))
		}},
		{"update then delete", func(sys *Relation, deliver func(*UpdateMsg, error)) {
			deliver(sys.DA.Insert(&Record{Key: 255, Attrs: [][]byte{[]byte("v1")}}, 500))
			deliver(sys.DA.ClosePeriod(1_000))
			deliver(sys.DA.Update(255, [][]byte{[]byte("v2")}, 1_100))
		}},
	} {
		for _, st := range memoStates {
			t.Run(sc.name+"/"+st.name, func(t *testing.T) {
				sys := newSystem(t, bas.New(0))
				load(t, sys, 50)
				deliver := deliverOp(t, sys)
				sc.certify(sys, deliver)
				last, err := scan(sys.QS, 255, 255)
				if err != nil || len(last.Chain.Records) != 1 {
					t.Fatalf("the version to withhold: %v", err)
				}
				v := NewVerifier(sys.Scheme, sys.Pub, DefaultConfig())
				st.warm(t, v, func() error {
					_, err := verifyScan(v, last, 255, 255, 1_150)
					return err
				})
				deliver(sys.DA.Delete(255, 1_200))
				verifyAt := func(now int64) error {
					for _, s := range sys.QS.SummariesTail(0, 0) {
						if held, _ := v.LatestSummary(); s.Seq > held.Seq {
							if err := v.IngestSummary(s); err != nil {
								t.Fatal(err)
							}
						}
					}
					_, err := verifyScan(v, last, 255, 255, now)
					return err
				}
				deliver(sys.DA.ClosePeriod(2_000))
				// Inside its 2ρ bound the withheld delete may still pass.
				if err := verifyAt(2_100); err != nil && !errors.Is(err, freshness.ErrStale) {
					t.Fatalf("one period after the delete: %v", err)
				}
				deliver(sys.DA.ClosePeriod(3_000))
				if err := verifyAt(3_100); !errors.Is(err, freshness.ErrStale) {
					t.Fatalf("a deleted version, two periods on, to a verifier %s: want ErrStale, got %v", st.what, err)
				}
			})
		}
	}
}

// TestAdversaryRecertifiedThenChanged: a version a period close
// re-certified, then changed in the period that close opened, must be
// refused once the change is two closes old — by a verifier that never
// saw it while it was current, and by one that closed it then once or
// twice. A server withholds the change and forwards only the summaries.
// Before a close re-certified after publishing, the re-signature's mark
// went into the summary that close published while CheckFresh read the
// version's TS as the next period's, so the change's one mark there read
// as the version itself and the version passed as fresh forever.
func TestAdversaryRecertifiedThenChanged(t *testing.T) {
	for _, sc := range []struct {
		name   string
		change func(sys *Relation, ts int64) (*UpdateMsg, error)
	}{
		{"updated", func(sys *Relation, ts int64) (*UpdateMsg, error) {
			return sys.DA.Update(250, [][]byte{[]byte("v4")}, ts)
		}},
		{"deleted", func(sys *Relation, ts int64) (*UpdateMsg, error) {
			return sys.DA.Delete(250, ts)
		}},
	} {
		for _, st := range memoStates {
			t.Run(sc.name+"/"+st.name, func(t *testing.T) {
				sys := newSystem(t, bas.New(0))
				load(t, sys, 50)
				deliver := deliverOp(t, sys)
				deliver(sys.DA.ClosePeriod(1_000))
				deliver(sys.DA.Update(250, [][]byte{[]byte("v2")}, 1_100))
				deliver(sys.DA.Update(250, [][]byte{[]byte("v3")}, 1_200))
				// The close that re-certifies key 250, updated twice in one
				// period.
				var recert *Answer
				var closed int64
				for closed = 2_000; closed <= 3_000 && recert == nil; closed += 1_000 {
					deliver(sys.DA.ClosePeriod(closed))
					ans, err := scan(sys.QS, 250, 250)
					if err != nil || len(ans.Chain.Records) != 1 {
						t.Fatalf("the version to withhold: %v", err)
					}
					if ans.Chain.Records[0].TS == closed {
						recert = ans
					}
				}
				if recert == nil {
					t.Fatal("fixture: no close re-certified key 250")
				}
				closed -= 1_000
				v := NewVerifier(sys.Scheme, sys.Pub, DefaultConfig())
				st.warm(t, v, func() error {
					_, err := verifyScan(v, recert, 250, 250, closed+100)
					return err
				})
				deliver(sc.change(sys, closed+500))
				for c := closed + 1_000; c <= closed+3_000; c += 1_000 {
					deliver(sys.DA.ClosePeriod(c))
				}
				for _, s := range sys.QS.SummariesTail(0, 0) {
					if held, _ := v.LatestSummary(); s.Seq > held.Seq {
						if err := v.IngestSummary(s); err != nil {
							t.Fatal(err)
						}
					}
				}
				if _, err := verifyScan(v, recert, 250, 250, closed+3_100); !errors.Is(err, freshness.ErrStale) {
					t.Fatalf("a re-certified version %s in the next period, to a verifier %s: want ErrStale, got %v",
						sc.name, st.what, err)
				}
			})
		}
	}
}

// TestAdversaryFrozenServer: a server that stops applying its feed keeps
// serving the last state it applied, with a summary tail that ends at the
// last close it was sent. Against the summaries alone that answer is
// fresh — the newest summary held marks nothing in it — so a verifier
// without a clock accepts it with a bound of 2ρ however long ago the
// server froze (here a record of it was replaced about 1,000 ρ earlier).
// A clocked verifier (UseClock) refuses it once ρ + δ have passed since
// the newest close it holds: within ρ + δ of the first close the server
// withheld, whether the verifier never saw the answer before (cold) or
// closed its claims while the server was live (warm).
func TestAdversaryFrozenServer(t *testing.T) {
	cfg := DefaultConfig()
	for _, st := range memoStates {
		t.Run(st.name, func(t *testing.T) {
			sys := newSystem(t, bas.New(0))
			load(t, sys, 20) // keys 10..200, certified at 100
			deliver := deliverOp(t, sys)
			deliver(sys.DA.ClosePeriod(1_100))
			frozen, err := scan(sys.QS, 50, 150)
			if err != nil {
				t.Fatal(err)
			}
			v := NewVerifier(sys.Scheme, sys.Pub, cfg)
			v.UseClock()
			st.warm(t, v, func() error {
				_, err := verifyScan(v, frozen, 50, 150, 1_200)
				return err
			})
			// The owner goes on; nothing reaches the server any more.
			if _, err := sys.DA.Update(100, [][]byte{[]byte("v2")}, 1_500); err != nil {
				t.Fatal(err)
			}
			const firstWithheld = 2_100
			for ts := int64(firstWithheld); ts <= 1_000_100; ts += cfg.Rho {
				if _, err := sys.DA.ClosePeriod(ts); err != nil {
					t.Fatal(err)
				}
			}
			if bound, err := verifyScan(NewVerifier(sys.Scheme, sys.Pub, cfg), frozen, 50, 150, 1_000_200); err != nil || bound != 2*cfg.Rho {
				t.Fatalf("without a clock the frozen answer is accepted at 2ρ; got bound %d, %v", bound, err)
			}
			// At the first withheld close the newest summary held is ρ old:
			// still inside ρ + δ, and the bound says how old.
			bound, err := verifyScan(v, frozen, 50, 150, firstWithheld)
			if err != nil || bound != cfg.Rho+2*cfg.Rho {
				t.Fatalf("a verifier %s at the first withheld close: bound %d, %v; want ρ + 2ρ", st.what, bound, err)
			}
			for _, now := range []int64{firstWithheld + cfg.Skew + 1, firstWithheld + cfg.Rho + cfg.Skew, 1_000_200} {
				if _, err := verifyScan(v, frozen, 50, 150, now); !errors.Is(err, freshness.ErrStale) {
					t.Fatalf("a verifier %s at %d, %d after the first withheld close: want ErrStale, got %v",
						st.what, now, now-firstWithheld, err)
				}
			}
		})
	}
	// A server frozen before the first close sends no summary at all: a
	// clocked verifier then holds the records' own certification times to
	// ρ + δ.
	sys := newSystem(t, bas.New(0))
	load(t, sys, 20)
	frozen, err := scan(sys.QS, 50, 150)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(sys.Scheme, sys.Pub, cfg)
	v.UseClock()
	if bound, err := verifyScan(v, frozen, 50, 150, 100+cfg.Rho); err != nil || bound != 2*cfg.Rho {
		t.Fatalf("no summary, records certified ρ ago: bound %d, %v; want 2ρ", bound, err)
	}
	if _, err := verifyScan(v, frozen, 50, 150, 100+cfg.Rho+cfg.Skew+1); !errors.Is(err, freshness.ErrStale) {
		t.Fatalf("no summary, records certified past ρ + δ ago: want ErrStale, got %v", err)
	}
}
