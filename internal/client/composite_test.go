package client_test

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"authdb/internal/bloom"
	"authdb/internal/core"
	"authdb/internal/join"
	"authdb/internal/query"
	"authdb/internal/server"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
	"authdb/internal/wire"
)

func basScheme() sigagg.Scheme { return bas.New(0) }

// batchTampers are forgeries aimed at batched composite verification:
// each leaves most of a key's claims honest, so the one closing check
// per key must still fail and the re-verification must name the section
// that carries the forgery.
var batchTampers = []struct {
	name    string
	attrs   []int
	section string // what the error must name
	mutate  func(comp *wire.Composite) bool
}{
	{
		// A flipped filter bit in the last probe of a partition that earlier
		// probes already presented honestly: the forged copy is a distinct
		// claim and must not hide behind the shared certification.
		name: "filter bit in one of many partitions", section: `join against "i": partition cert`,
		mutate: func(comp *wire.Composite) bool {
			un := comp.Join.Unmatched
			for i := len(un) - 1; i > 0; i-- {
				if un[i].Partition == nil {
					continue
				}
				for k := 0; k < i; k++ {
					if un[k].Partition != nil && un[k].Partition.Lo == un[i].Partition.Lo {
						return flipFilterBit(&un[i], un[i].RA)
					}
				}
			}
			return false
		},
	},
	{
		// Two probes of different partitions trade certifications while
		// other probes of those partitions keep theirs. Summed, the traded
		// signatures cancel — only the one-certification-per-partition rule
		// catches it.
		name: "PartSig swapped between two partitions", section: `join against "i": partition`,
		mutate: func(comp *wire.Composite) bool {
			un := comp.Join.Unmatched
			last := map[int64]int{} // partition Lo → its last probe, when it has several
			seen := map[int64]bool{}
			for i := range un {
				if un[i].Partition == nil {
					continue
				}
				if seen[un[i].Partition.Lo] {
					last[un[i].Partition.Lo] = i
				}
				seen[un[i].Partition.Lo] = true
			}
			var pick []int
			for _, i := range last {
				pick = append(pick, i)
			}
			if len(pick) < 2 {
				return false
			}
			a, b := &un[pick[0]], &un[pick[1]]
			a.PartSig, b.PartSig = b.PartSig, a.PartSig
			return true
		},
	},
	{
		// The whole join section replaced: every outer key "proved" absent by
		// one fabricated empty partition under a signature of something
		// else, silently dropping every join result. Nothing is left under
		// the inner key but chain-less certification claims — which must be
		// closed all the same.
		name: "join replaced by a forged empty partition", section: `join against "i": partition cert`,
		mutate: func(comp *wire.Composite) bool {
			var sig sigagg.Signature
			for _, up := range comp.Join.Unmatched {
				if up.Partition != nil {
					sig = up.PartSig
				}
			}
			if sig == nil {
				return false
			}
			empty := &bloom.Partition{Lo: math.MinInt64, Hi: math.MaxInt64, Filter: bloom.New(64, 1)}
			comp.Join.Matches, comp.Join.Unmatched = nil, nil
			for _, rec := range comp.Outer.Records {
				comp.Join.Unmatched = append(comp.Join.Unmatched, join.UnmatchedProof{RA: rec.Key, Partition: empty, PartSig: sig})
			}
			return true
		},
	},
	{
		name: "wrong FilterTS", section: `join against "i": partition cert`,
		mutate: func(comp *wire.Composite) bool { comp.Join.FilterTS--; return true },
	},
	{
		name: "projected value swapped", attrs: []int{0, 1}, section: `projection over "o"`,
		mutate: func(comp *wire.Composite) bool {
			r := comp.Proj.Rows
			n := len(r)
			r[n/2].Values[1], r[n-1].Values[1] = r[n-1].Values[1], r[n/2].Values[1]
			return true
		},
	},
	{
		name: "inner boundary record altered", section: `join against "i"`,
		mutate: func(comp *wire.Composite) bool {
			for i := range comp.Join.Unmatched {
				if b := comp.Join.Unmatched[i].Boundary; b != nil && b.Anchor != nil {
					anchor := *b.Anchor
					anchor.Attrs = [][]byte{[]byte("forged")}
					b.Anchor = &anchor
					return true
				}
			}
			return false
		},
	},
}

// flipFilterBit flips one bit of the probe's Bloom filter that the
// probed value does not hash to, so the probe stays negative and only
// the certification can tell.
func flipFilterBit(up *join.UnmatchedProof, ra int64) bool {
	raw := up.Partition.Filter.Marshal()
	for bit := 0; bit < 8*(len(raw)-24); bit++ {
		raw[24+bit/8] ^= 1 << (bit % 8)
		f, err := bloom.Unmarshal(raw)
		if err == nil && !f.MayContainUint64(uint64(ra)) {
			part := *up.Partition
			part.Filter = f
			up.Partition = &part
			return true
		}
		raw[24+bit/8] ^= 1 << (bit % 8)
	}
	return false
}

// TestAdversaryCompositeUnderBatching: on the real scheme, with every
// key closed by one batch, each forgery is rejected as a verification
// failure whose error names the forged section.
func TestAdversaryCompositeUnderBatching(t *testing.T) {
	fx := newPlanFixtureOn(t, basScheme, server.NetConfig{})
	for _, tc := range batchTampers {
		t.Run(tc.name, func(t *testing.T) {
			ts := newTamperSrv(t, fx.addr)
			var applied atomic.Bool // set on the proxy's goroutine
			forge := func(comp *wire.Composite) bool {
				if tc.mutate(comp) {
					applied.Store(true)
				}
				return applied.Load()
			}
			cl := fx.dial(t, ts.Addr())
			// Cold: the forgery is the first composite the session sees.
			// Warm: it has since verified the honest plan, and its
			// verifiers remember every honest claim the forgery sits among.
			for plans, memo := range []string{"cold", "warm"} {
				applied.Store(false)
				ts.Forge(forge)
				_, err := cl.QueryPlan(fx.spec(join.BF, tc.attrs))
				if !applied.Load() {
					t.Fatal("fixture: the forgery found nothing to tamper with")
				}
				if err == nil {
					t.Fatalf("%s session: forged composite accepted", memo)
				}
				if !errors.Is(err, sigagg.ErrVerify) {
					t.Fatalf("%s session: surfaced as %v, want sigagg.ErrVerify", memo, err)
				}
				if !strings.Contains(err.Error(), tc.section) {
					t.Fatalf("%s session: error %q does not name the section %q", memo, err, tc.section)
				}
				if st := cl.Stats(); st.Verified != uint64(plans) {
					t.Fatalf("%s session: %d plans accepted, %d of them honest", memo, st.Verified, plans)
				}
				// The honest answer through the same proxy verifies.
				ts.Forge(nil)
				if _, err := cl.QueryPlan(fx.spec(join.BF, tc.attrs)); err != nil {
					t.Fatal(err)
				}
			}
			// And as one member of a pipelined batch, whose other members'
			// claims close under the same two keys.
			applied.Store(false)
			pipelinedAmong(t, fx, fx.spec(join.BF, tc.attrs), forge, tc.section)
			if !applied.Load() {
				t.Fatal("fixture: the forgery found nothing to tamper with in the batch")
			}
		})
	}
}

// TestAdversaryAllNegativeJoinRejected: a BF join none of whose outer keys
// the inner relation's filter admits is answered by Bloom negatives alone,
// so the inner key's batch holds partition certifications and not one
// chain. Those claims are closed like any others: a forged certification
// is refused cold, warm, and as a member of a pipelined batch.
func TestAdversaryAllNegativeJoinRejected(t *testing.T) {
	fx := newPlanFixtureOn(t, basScheme, server.NetConfig{})
	ts := newTamperSrv(t, fx.addr)
	cl := fx.dial(t, ts.Addr())
	var spec *query.Spec
	for k := int64(10); k <= 1000 && spec == nil; k += 10 {
		s := &query.Spec{Rel: "o", Lo: k - 5, Hi: k + 15, Join: &query.JoinSpec{Rel: "i", Method: join.BF}}
		comp, err := cl.QueryPlan(s)
		if err != nil {
			t.Fatal(err)
		}
		if st := cl.Stats(); len(comp.Join.Matches) == 0 && st.JoinBFFalls == 0 {
			spec = s
		}
		cl = fx.dial(t, ts.Addr()) // counters from zero for the next candidate
	}
	if spec == nil {
		t.Fatal("fixture: no outer range is all Bloom negatives")
	}
	forge := func(comp *wire.Composite) bool {
		if comp.Join == nil || len(comp.Join.Matches) > 0 {
			return false
		}
		// A well-formed signature of something else, on every probe, so a
		// partition is still presented with one certification throughout.
		for i := range comp.Join.Unmatched {
			comp.Join.Unmatched[i].PartSig = comp.Outer.Agg
		}
		return true
	}
	for plans, memo := range []string{"cold", "warm"} {
		ts.Forge(forge)
		_, err := cl.QueryPlan(spec)
		if !errors.Is(err, sigagg.ErrVerify) || !strings.Contains(fmt.Sprint(err), `join against "i": partition cert`) {
			t.Fatalf("%s session: forged certification gave %v, want sigagg.ErrVerify naming the partition cert", memo, err)
		}
		if st := cl.Stats(); st.Verified != uint64(plans) {
			t.Fatalf("%s session: %d plans accepted, %d of them honest", memo, st.Verified, plans)
		}
		ts.Forge(nil)
		if _, err := cl.QueryPlan(spec); err != nil {
			t.Fatal(err)
		}
	}
	pipelinedAmong(t, fx, spec, forge, `join against "i": partition cert`)
}

// TestCompositeClosesOncePerKey: a verified BF plan costs one closing
// verification per signer key — outer and inner — however many sections
// and Bloom probes it carries, and the identical plan asked again costs
// none: every claim it makes is one the session has closed (the claim
// memo of core.Verifier.VerifyJobs). It is also the gate that a session on
// the default scheme verifies on the fast path, plans and range queries
// alike: fast verifications counted, cached hash-to-curve points reused
// by a new claim over known records, and not one portable verification.
func TestCompositeClosesOncePerKey(t *testing.T) {
	fx := newPlanFixtureOn(t, basScheme, server.NetConfig{})
	scheme := bas.New(0)
	cl := fx.dialWith(t, fx.addr, scheme, 1)
	spec := fx.spec(join.BF, []int{0})
	comp, err := cl.QueryPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(comp.Join.Matches) + len(comp.Join.Unmatched); n < 30 {
		t.Fatalf("fixture: only %d join proofs", n)
	}
	// The first plan also ingests the summary tails, one signature check
	// each; the rest of its fast verifications are the closes.
	first, st := scheme.VerifyStats(), cl.Stats()
	if d := first.FastVerifies - st.Summaries; d < 1 || d > 3 {
		t.Fatalf("one BF plan cost %d closing verifications, want at most 3", d)
	}
	if st.ClaimMisses < 3 || st.BatchesWithoutEC != 0 {
		t.Fatalf("a cold session's first plan: %d claims sent to the scheme, %d batches closed without it", st.ClaimMisses, st.BatchesWithoutEC)
	}
	if _, err := cl.QueryPlan(spec); err != nil {
		t.Fatal(err)
	}
	after, st2 := scheme.VerifyStats(), cl.Stats()
	if d := after.FastVerifies - first.FastVerifies; d != 0 {
		t.Fatalf("the identical plan again cost %d verifications, want 0", d)
	}
	if st2.ClaimMisses != st.ClaimMisses || st2.ClaimHits-st.ClaimHits < st.ClaimMisses || st2.BatchesWithoutEC < 2 || st2.Verified != 2 {
		t.Fatalf("the identical plan again: %+v -> %+v", st, st2)
	}
	// Range queries share the plan session's connection and its scheme:
	// the first is a claim no verifier of the session has closed, over
	// records whose digests the plan's outer chain already hashed.
	for i := 0; i < 2; i++ {
		if _, _, err := cl.Query(105, 695); err != nil {
			t.Fatal(err)
		}
	}
	final, st3 := scheme.VerifyStats(), cl.Stats()
	if st3.ClaimMisses != st2.ClaimMisses+1 || st3.ClaimHits != st2.ClaimHits+1 {
		t.Fatalf("two identical range queries: %+v -> %+v, want one claim verified and one remembered", st2, st3)
	}
	if final.FastVerifies == after.FastVerifies || final.H2CCacheHits == after.H2CCacheHits {
		t.Fatalf("range queries bypassed the fast path: %+v -> %+v", after, final)
	}
	if final.PortableVerifies != 0 {
		t.Fatalf("%d portable verifications on the fast path", final.PortableVerifies)
	}
}

// TestSummaryBridgingPages: a cold session against a long-lived server
// must page through the server's capped summary replies, for a range
// query and for a plan alike. The answered records were all written
// after 24 periods had closed, so the attached summaries start far
// beyond sequence 1 and the gap is six capped replies long.
func TestSummaryBridgingPages(t *testing.T) {
	fx := newPlanFixtureOn(t, basScheme, server.NetConfig{MaxSummaries: 4})
	deliver := func(rel *core.Relation, msg *core.UpdateMsg, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := rel.Deliver(msg); err != nil {
			t.Fatal(err)
		}
	}
	ts := int64(1_000)
	for p := 0; p < 23; p++ {
		ts += 1_000
		for _, rel := range []*core.Relation{fx.outer, fx.inner} {
			msg, err := rel.DA.ClosePeriod(ts)
			deliver(rel, msg, err)
		}
	}
	// New records beyond the loaded key range, on both relations.
	for k := int64(2000); k < 2100; k += 10 {
		msg, err := fx.outer.DA.Insert(&core.Record{Key: k, Attrs: [][]byte{[]byte("late"), []byte(fmt.Sprint(k))}}, ts+100)
		deliver(fx.outer, msg, err)
		if k%20 == 0 {
			msg, err := fx.inner.DA.Insert(&core.Record{Key: k, Attrs: [][]byte{[]byte("late")}}, ts+100)
			deliver(fx.inner, msg, err)
		}
	}
	ts += 1_000
	for _, rel := range []*core.Relation{fx.outer, fx.inner} {
		msg, err := rel.DA.ClosePeriod(ts)
		deliver(rel, msg, err)
	}
	fc, err := fx.inner.DA.CertifyFilter(8, 8, ts)
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.eng.SetFilter("i", fc); err != nil {
		t.Fatal(err)
	}

	t.Run("range", func(t *testing.T) {
		cl := fx.dial(t, fx.addr)
		if _, _, err := cl.Query(2000, 2090); err != nil {
			t.Fatal(err)
		}
		if st := cl.Stats(); st.Summaries < 20 {
			t.Fatalf("bridged %d summaries, want the whole stream of 25", st.Summaries)
		}
	})
	t.Run("plan", func(t *testing.T) {
		cl := fx.dial(t, fx.addr)
		spec := &query.Spec{Rel: "o", Lo: 2000, Hi: 2090, Attrs: []int{1},
			Join: &query.JoinSpec{Rel: "i", Method: join.BF}}
		comp, err := cl.QueryPlan(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(comp.Outer.Records) != 10 || len(comp.Join.Matches) != 5 {
			t.Fatalf("%d records, %d matches; want 10 and 5", len(comp.Outer.Records), len(comp.Join.Matches))
		}
		if st := cl.Stats(); st.Summaries < 40 {
			t.Fatalf("bridged %d summaries, want both relations' streams of 25", st.Summaries)
		}
	})
}

// BenchmarkVerifyComposite times the client's verification of one
// delivered BF join plan (59 outer rows × 1 projected attribute, 20
// matches, 39 non-matches) on the real scheme, single worker, caches
// warm — the steady state of a session repeating its plans: every claim
// is one the session remembers, so this is everything but the curve
// arithmetic.
func BenchmarkVerifyComposite(b *testing.B) {
	fx := newPlanFixtureOn(b, basScheme, server.NetConfig{})
	cl := fx.dialWith(b, fx.addr, basScheme(), 1)
	spec := fx.spec(join.BF, []int{0})
	comp, err := cl.FetchPlan(spec)
	if err != nil {
		b.Fatal(err)
	}
	if err := cl.VerifyComposite(spec, comp); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.VerifyComposite(spec, comp); err != nil {
			b.Fatal(err)
		}
	}
}
