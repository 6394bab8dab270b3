package core

import (
	"testing"

	"authdb/internal/chain"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
)

// TestAdversary drives a catalogue of server-side attacks against a
// single honest answer and requires every one to be rejected. This is
// the threat model of §1: the query server is untrusted or compromised,
// while the data aggregator's public key is authentic. Every attack runs
// twice: against a verifier that has seen nothing, and against the one
// that has just verified — and remembers the claim of — the honest answer
// the forgery was made from.
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
			// summary bytes.
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
			ans, err := sys.QS.Query(250, 500)
			if err != nil {
				t.Fatal(err)
			}
			// Sanity: the honest answer verifies.
			if _, err := sys.Verifier.VerifyAnswer(ans, 250, 500, 1_100); err != nil {
				t.Fatalf("honest answer rejected: %v", err)
			}
			fresh, err := sys.QS.Query(250, 500)
			if err != nil {
				t.Fatal(err)
			}
			atk.mutate(fresh)
			cold := NewVerifier(sys.Scheme, sys.Pub, DefaultConfig())
			if _, err := cold.VerifyAnswer(fresh, 250, 500, 1_100); err == nil {
				t.Fatalf("attack %q went undetected", atk.name)
			}
			if atk.name == "truncate summaries to hide an update" {
				// A verifier that holds summary 1 skips a re-sent copy
				// unread, forged or not; the records are honest.
				return
			}
			if _, err := sys.Verifier.VerifyAnswer(fresh, 250, 500, 1_100); err == nil {
				t.Fatalf("attack %q went undetected by a verifier that remembers the honest answer", atk.name)
			}
			if st := sys.Verifier.ClaimStats(); st.ClaimMisses == 0 {
				t.Fatal("fixture: the warm verifier never closed the honest claim")
			}
		})
	}
}

// TestAdversaryEmptyAnswer attacks the anchored empty-answer proof.
func TestAdversaryEmptyAnswer(t *testing.T) {
	sys := newSystem(t, bas.New(0))
	load(t, sys, 20)                      // keys 10..200
	honest, err := sys.QS.Query(105, 109) // gap between 100 and 110
	if err != nil {
		t.Fatal(err)
	}
	if honest.Chain.Anchor == nil {
		t.Fatal("expected anchored empty answer")
	}
	if _, err := sys.Verifier.VerifyAnswer(honest, 105, 109, 200); err != nil {
		t.Fatalf("honest empty answer rejected: %v", err)
	}
	// Both attacks against the verifier that remembers the honest proof's
	// claim, and against one that has seen nothing.
	for name, verifier := range map[string]*Verifier{
		"warm": sys.Verifier,
		"cold": NewVerifier(sys.Scheme, sys.Pub, DefaultConfig()),
	} {
		// Attack 1: claim a populated range [100,110] is empty using the
		// anchor for the adjacent gap. (The claim is the honest one — same
		// anchor digest, same aggregate — so the warm verifier's memo holds
		// it: only the structural check stands in the way.)
		fake := *honest
		fakeChain := *honest.Chain
		fakeChain.Lo, fakeChain.Hi = 95, 115
		fake.Chain = &fakeChain
		if _, err := verifier.VerifyAnswer(&fake, 95, 115, 200); err == nil {
			t.Fatalf("%s verifier: fake empty range accepted", name)
		}

		// Attack 2: widen the anchor's right reference to swallow a record.
		fake2chain := *honest.Chain
		fake2chain.Right = chain.Ref{Key: 130, RID: 13}
		fake2chain.Lo, fake2chain.Hi = 105, 125
		fake2 := Answer{Chain: &fake2chain, Summaries: honest.Summaries}
		if _, err := verifier.VerifyAnswer(&fake2, 105, 125, 200); err == nil {
			t.Fatalf("%s verifier: widened anchor accepted", name)
		}
	}
}

// TestAdversaryReplayOldAnswer covers the full replay path: an answer
// that was valid before an update must fail freshness once summaries
// advance past it — here for a verifier that never saw it while it was
// current; TestClaimMemoReplayStillStale is the same replay against the
// session that verified it then.
func TestAdversaryReplayOldAnswer(t *testing.T) {
	sys := newSystem(t, bas.New(0))
	load(t, sys, 50)
	old, err := sys.QS.Query(100, 120)
	if err != nil {
		t.Fatal(err)
	}
	deliver := func(m *UpdateMsg, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.Deliver(m); err != nil {
			t.Fatal(err)
		}
	}
	deliver(sys.DA.ClosePeriod(1_000))
	deliver(sys.DA.Update(110, [][]byte{[]byte("v2")}, 1_500))
	deliver(sys.DA.ClosePeriod(2_000))
	for _, s := range sys.QS.SummariesSince(0) {
		if err := sys.Verifier.IngestSummary(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.Verifier.VerifyAnswer(old, 100, 120, 2_100); err == nil {
		t.Fatal("replayed pre-update answer accepted")
	}
}
