package client_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"authdb/internal/bloom"
	"authdb/internal/client"
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
// that carries the forgery. They run against the dense fixture, whose BF
// plan carries a dozen runs and several partitions' negatives.
//
// The frame-level cases rewrite the encoded projection section instead of
// the decoded composite: what its layout lets a replica say (values moved
// to another row) must fail verification, and what it does not (a row one
// value short or long, a count or length the frame cannot hold) must not
// decode at all (corrupt: wire.ErrCorrupt, named by the error's text).
var batchTampers = []struct {
	name    string
	bv      bool // a BV join; BF unless set
	attrs   []int
	lo, hi  int64  // the plan's range; [105,695] unless set
	section string // what the error must name
	mutate  func(comp *wire.Composite) bool
	frame   frameForgery // instead of mutate
	corrupt bool         // refused by the decoder, not the verifier
}{
	{
		// A flipped filter bit in the last partition listed, which answers
		// several keys and sits among honestly certified ones: every probe
		// stays negative and only the certification can tell.
		name: "filter bit in one of many partitions", section: `join against "i": partition cert`,
		mutate: func(comp *wire.Composite) bool {
			negs := comp.Join.Negatives
			return len(negs) > 1 && flipFilterBit(&negs[len(negs)-1])
		},
	},
	{
		// Two partitions are each listed twice, the second listings trading
		// certifications. Summed, the traded signatures cancel — only the
		// one-listing-per-partition rule catches it.
		name: "PartSig swapped between two partitions", section: `join against "i"`,
		mutate: func(comp *wire.Composite) bool {
			var split []join.Negatives
			var again []int // the second listing of each partition that has one
			for _, g := range comp.Join.Negatives {
				if len(g.Keys) < 2 || len(again) == 2 {
					split = append(split, g)
					continue
				}
				first, second := g, g
				first.Keys, second.Keys = g.Keys[:1], g.Keys[1:]
				split = append(split, first, second)
				again = append(again, len(split)-1)
			}
			if len(again) < 2 {
				return false
			}
			a, b := &split[again[0]], &split[again[1]]
			a.PartSig, b.PartSig = b.PartSig, a.PartSig
			comp.Join.Negatives = split
			return true
		},
	},
	{
		name: "one partition listed twice with different certifications", section: `join against "i"`,
		mutate: func(comp *wire.Composite) bool {
			for i, g := range comp.Join.Negatives {
				if len(g.Keys) < 2 {
					continue
				}
				first, second := g, g
				first.Keys, second.Keys = g.Keys[:1], g.Keys[1:]
				second.PartSig = comp.Outer.Agg // a well-formed signature of something else
				comp.Join.Negatives = append(append(comp.Join.Negatives[:i:i], first, second), comp.Join.Negatives[i+1:]...)
				return true
			}
			return false
		},
	},
	{
		// The whole join section replaced: every outer key "proved" absent by
		// one fabricated empty partition under a signature of something
		// else, silently dropping every join result. Nothing is left under
		// the inner key but a chain-less certification claim — which must be
		// closed all the same.
		name: "join replaced by a forged empty partition", section: `join against "i": partition cert`,
		mutate: func(comp *wire.Composite) bool {
			if len(comp.Join.Negatives) == 0 {
				return false
			}
			empty := &bloom.Partition{Lo: math.MinInt64, Hi: math.MaxInt64, Filter: bloom.New(64, 1)}
			comp.Join.Runs = nil
			comp.Join.Negatives = []join.Negatives{{Partition: empty, PartSig: comp.Join.Negatives[0].PartSig, Keys: join.OuterKeys(comp.Outer.Records)}}
			return true
		},
	},
	{
		// With negatives the filter time is bound by every certification…
		name: "wrong FilterTS", section: `join against "i": partition cert`,
		mutate: compTamperWrongFilterTS,
	},
	{
		// …and without any — here every key lies between two matches, in one
		// run — nothing binds it, so none may be stated.
		name: "FilterTS without a negative", lo: 115, hi: 125, section: `join against "i"`,
		mutate: func(comp *wire.Composite) bool {
			return len(comp.Join.Negatives) == 0 && compTamperWrongFilterTS(comp)
		},
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
		name: "two rows' values swapped in the frame", attrs: []int{0, 1}, section: `projection over "o"`,
		frame: func(frame []byte) []byte {
			_, rows := projSection(frame)
			if len(rows) < 2 {
				return nil
			}
			a, b := rows[len(rows)/2], rows[len(rows)-1]
			return slices.Concat(frame[:a[0]], frame[b[0]:b[1]], frame[a[1]:b[0]], frame[a[0]:a[1]], frame[b[1]:])
		},
	},
	{
		name: "one value too few in the frame", attrs: []int{0, 1}, corrupt: true, section: "wire: corrupt message",
		frame: func(frame []byte) []byte {
			v, ok := projValue(frame)
			if !ok {
				return nil
			}
			return slices.Concat(frame[:v[0]], frame[v[1]:])
		},
	},
	{
		name: "one value too many in the frame", attrs: []int{0, 1}, corrupt: true, section: "wire: corrupt message",
		frame: func(frame []byte) []byte {
			v, ok := projValue(frame)
			if !ok {
				return nil
			}
			return slices.Concat(frame[:v[1]], frame[v[0]:v[1]], frame[v[1]:])
		},
	},
	{
		// Counts and lengths are refused on the bytes left before they size
		// anything (the allocation itself: wire's
		// TestDecodeBoundsCountsByBytesPresent).
		name: "slot count past the frame's end", attrs: []int{0, 1}, corrupt: true, section: "count 1099511627776 in",
		frame: func(frame []byte) []byte {
			at, rows := projSection(frame)
			if rows == nil {
				return nil
			}
			out := bytes.Clone(frame)
			binary.BigEndian.PutUint64(out[at:], 1<<40)
			return out
		},
	},
	{
		name: "value length past the frame's end", attrs: []int{0, 1}, corrupt: true, section: "truncated field (1099511627776 bytes)",
		frame: func(frame []byte) []byte {
			v, ok := projValue(frame)
			if !ok {
				return nil
			}
			out := bytes.Clone(frame)
			binary.BigEndian.PutUint64(out[v[0]:], 1<<40)
			return out
		},
	},
	{
		name: "inner boundary record altered", bv: true, section: `join against "i"`,
		mutate: func(comp *wire.Composite) bool {
			for _, run := range comp.Join.Runs {
				if run.Anchor != nil {
					anchor := *run.Anchor
					anchor.Attrs = [][]byte{[]byte("forged")}
					run.Anchor = &anchor
					return true
				}
			}
			return false
		},
	},
	{
		// A match withheld: the run's other records, boundaries and
		// aggregate untouched.
		name: "record dropped from inside a run", section: `join against "i"`,
		mutate: func(comp *wire.Composite) bool {
			for _, run := range comp.Join.Runs {
				if n := len(run.Records); n >= 2 {
					run.Records = append(run.Records[:n/2:n/2], run.Records[n/2+1:]...)
					return true
				}
			}
			return false
		},
	},
	{
		// The last key of a run cut off it, with whatever it matched: one
		// join result fewer, and no proof of the key's absence either.
		name: "run's Hi pulled in", bv: true, section: `join against "i"`,
		mutate: func(comp *wire.Composite) bool {
			keys := join.OuterKeys(comp.Outer.Records)
			for _, run := range comp.Join.Runs {
				i, _ := slices.BinarySearch(keys, run.Hi)
				if run.Lo == run.Hi || i == 0 {
					continue
				}
				run.Hi = keys[i-1]
				for n := len(run.Records); n > 0 && run.Records[n-1].Key > run.Hi; n-- {
					run.Records = run.Records[:n-1]
				}
				return true
			}
			return false
		},
	},
	{
		// A run claims to have scanned as far as the stranger that ends it:
		// no outer key is resolved differently, but the range is no longer
		// one its right boundary record vouches for (the chain's own check).
		name: "run relabelled past its Right boundary", bv: true, section: `right boundary`,
		mutate: func(comp *wire.Composite) bool {
			for _, run := range comp.Join.Runs {
				if run.Right.Key-run.Hi < 10 {
					run.Hi = run.Right.Key
					return true
				}
			}
			return false
		},
	},
	{
		name: "two overlapping runs", section: `join against "i"`,
		mutate: func(comp *wire.Composite) bool {
			runs := comp.Join.Runs
			if len(runs) == 0 {
				return false
			}
			comp.Join.Runs = append(append(runs[:1:1], runs[0]), runs[1:]...)
			return true
		},
	},
	{
		// A run stretched over the key next to it, which a Bloom negative
		// already answers.
		name: "key resolved by a run and a negative", section: `join against "i"`,
		mutate: func(comp *wire.Composite) bool {
			keys := join.OuterKeys(comp.Outer.Records)
			for _, g := range comp.Join.Negatives {
				for _, run := range comp.Join.Runs {
					if i, _ := slices.BinarySearch(keys, run.Hi); i+1 < len(keys) && keys[i+1] == g.Keys[0] {
						run.Hi = g.Keys[0]
						return true
					}
				}
			}
			return false
		},
	},
	{
		// An inner scan nobody asked for, wedged between two runs.
		name: "run that contains no outer key", bv: true, section: `join against "i"`,
		mutate: func(comp *wire.Composite) bool {
			runs := comp.Join.Runs
			if len(runs) < 2 {
				return false
			}
			idle := *runs[0]
			idle.Lo, idle.Hi, idle.Records = runs[0].Hi+1, runs[0].Hi+1, nil
			comp.Join.Runs = append(append(runs[:1:1], &idle), runs[1:]...)
			return true
		},
	},
	{
		name: "run holding a record whose key is no outer key", section: `join against "i"`,
		mutate: func(comp *wire.Composite) bool {
			for _, run := range comp.Join.Runs {
				if n := len(run.Records); n >= 2 {
					stranger := *run.Records[0]
					stranger.Key++
					run.Records[0] = &stranger
					return true
				}
			}
			return false
		},
	},
}

// projSection locates the projection section of a 'C' frame: at is where
// it starts (its slot count), rows[i] the span of row i's length-prefixed
// values. rows is nil when the frame has no projection or no row.
func projSection(frame []byte) (at int, rows [][2]int) {
	comp, err := wire.DecodeComposite(bytes.Clone(frame))
	if err != nil || comp.Proj == nil || len(comp.Proj.Rows) == 0 {
		return 0, nil
	}
	at = comp.Bytes.Outer
	end := at + 8 + 8*len(comp.Proj.AttrIdxs) // past the slots
	rows = make([][2]int, len(comp.Proj.Rows))
	for i, row := range comp.Proj.Rows {
		rows[i][0] = end
		for _, v := range row.Values {
			end += 8 + len(v)
		}
		rows[i][1] = end
	}
	return at, rows
}

// projValue is the span of the middle projected row's first value, its
// length prefix included.
func projValue(frame []byte) ([2]int, bool) {
	_, rows := projSection(frame)
	if rows == nil {
		return [2]int{}, false
	}
	at := rows[len(rows)/2][0]
	return [2]int{at, at + 8 + int(binary.BigEndian.Uint64(frame[at:]))}, true
}

// compTamperWrongFilterTS states an earlier filter certification time
// than the server did.
func compTamperWrongFilterTS(comp *wire.Composite) bool {
	if comp.Join == nil {
		return false
	}
	comp.Join.FilterTS--
	return true
}

// flipFilterBit flips one bit of the partition's Bloom filter that none
// of the keys it answers hashes to, so every probe stays negative and
// only the certification can tell.
func flipFilterBit(g *join.Negatives) bool {
	raw := g.Partition.Filter.Marshal()
	for bit := 0; bit < 8*(len(raw)-24); bit++ {
		raw[24+bit/8] ^= 1 << (bit % 8)
		f, err := bloom.Unmarshal(raw)
		if err == nil && !slices.ContainsFunc(g.Keys, func(k int64) bool { return f.MayContainUint64(uint64(k)) }) {
			part := *g.Partition
			part.Filter = f
			g.Partition = &part
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
	fx := newDensePlanFixture(t, basScheme)
	for _, tc := range batchTampers {
		t.Run(tc.name, func(t *testing.T) {
			spec := fx.spec(join.BF, tc.attrs)
			if tc.bv {
				spec.Join.Method = join.BV
			}
			if tc.hi != 0 {
				spec.Lo, spec.Hi = tc.lo, tc.hi
			}
			ts := newTamperSrv(t, fx.addr)
			tamper, want := tc.frame, sigagg.ErrVerify
			if tamper == nil {
				tamper = onFrame(tc.mutate)
			}
			if tc.corrupt {
				want = wire.ErrCorrupt
			}
			var applied atomic.Bool // set on the proxy's goroutine
			forge := func(frame []byte) []byte {
				out := tamper(frame)
				if out != nil {
					applied.Store(true)
				}
				return out
			}
			cl := fx.dial(t, ts.Addr())
			// Cold: the forgery is the first composite the session sees.
			// Warm: it has since verified the honest plan once (twice), and
			// its verifiers remember every honest claim the forgery sits
			// among by digest (content) name.
			for plans, memo := range memoStates {
				applied.Store(false)
				ts.ForgeFrames(forge)
				_, err := cl.QueryPlan(spec)
				if !applied.Load() {
					t.Fatal("fixture: the forgery found nothing to tamper with")
				}
				if err == nil {
					t.Fatalf("%s session: forged composite accepted", memo)
				}
				if !errors.Is(err, want) {
					t.Fatalf("%s session: surfaced as %v, want %v", memo, err, want)
				}
				if !strings.Contains(err.Error(), tc.section) {
					t.Fatalf("%s session: error %q does not name the section %q", memo, err, tc.section)
				}
				if st := cl.Stats(); st.Verified != uint64(plans) {
					t.Fatalf("%s session: %d plans accepted, %d of them honest", memo, st.Verified, plans)
				}
				// The honest answer through the same proxy verifies.
				ts.Forge(nil)
				if _, err := cl.QueryPlan(spec); err != nil {
					t.Fatal(err)
				}
			}
			// And as one member of a pipelined batch, whose other members'
			// claims close under the same two keys. (A frame that does not
			// decode ends a batch's read there, before anything is verified.)
			if tc.corrupt {
				return
			}
			applied.Store(false)
			pipelinedAmong(t, fx, spec, forge, tc.section)
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
// is refused in every memo state, and as a member of a pipelined batch.
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
		if len(comp.Join.Runs) == 0 {
			spec = s
		}
		cl = fx.dial(t, ts.Addr()) // counters from zero for the next candidate
	}
	if spec == nil {
		t.Fatal("fixture: no outer range is all Bloom negatives")
	}
	forge := func(comp *wire.Composite) bool {
		if comp.Join == nil || len(comp.Join.Runs) > 0 {
			return false
		}
		// A well-formed signature of something else, on every partition.
		for i := range comp.Join.Negatives {
			comp.Join.Negatives[i].PartSig = comp.Outer.Agg
		}
		return true
	}
	for plans, memo := range memoStates {
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
	pipelinedAmong(t, fx, spec, onFrame(forge), `join against "i": partition cert`)
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
	if n := len(comp.Outer.Records); n < 30 || len(comp.Join.Runs) == 0 {
		t.Fatalf("fixture: %d outer keys resolved in %d runs", n, len(comp.Join.Runs))
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
		if _, err := cl.QueryPlan(leaf(105, 695)); err != nil {
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

// TestClaimNamedByContentFromThirdSighting: one plan answer verified
// three times through one session is a miss (its claims go to the scheme
// and are remembered by digest name), then a digest hit (the digests are
// recomputed, they match, and the claims are renamed by content), then a
// content hit (no digest computed). A selection is one claim; a BF plan
// with a projection is a claim per section, run and listed partition, of
// which only the partition certifications, one digest each, stay
// digest-named. The last two sightings do no curve arithmetic. The
// session holds no answers: a selection's third sighting would be
// confirmed unchanged and never reach the memo (TestHeldAnswerConfirmedUnchanged).
func TestClaimNamedByContentFromThirdSighting(t *testing.T) {
	fx := newPlanFixtureOn(t, basScheme, server.NetConfig{})
	for _, spec := range []*query.Spec{{Rel: "o", Lo: 105, Hi: 695}, fx.spec(join.BF, []int{0})} {
		cl := fx.dial(t, fx.addr)
		cl.SetHeldBudget(0)
		var comp *wire.Composite
		var sightings []client.Stats
		for i := 0; i < 3; i++ {
			var err error
			if comp, err = cl.QueryPlan(spec); err != nil {
				t.Fatal(err)
			}
			sightings = append(sightings, cl.Stats())
		}
		claims, certs := uint64(1), uint64(0)
		if comp.Join != nil {
			claims += 1 + uint64(len(comp.Join.Runs)+len(comp.Join.Negatives)) // the projection, runs, partitions
			certs = uint64(len(comp.Join.Negatives))
		}
		st := sightings[2]
		if st.ClaimMisses != claims || st.ClaimHits != 2*claims || st.ContentHits != claims-certs {
			t.Fatalf("%+v: %d claims, %d of them certifications, verified three times: %d misses, %d hits, %d of them by content",
				*spec, claims, certs, st.ClaimMisses, st.ClaimHits, st.ContentHits)
		}
		if d := sightings[1]; d.ClaimHits != claims || d.ContentHits != 0 {
			t.Fatalf("%+v: the second sighting: %d hits, %d by content; want %d by digests", *spec, d.ClaimHits, d.ContentHits, claims)
		}
		keys := uint64(1)
		if spec.Join != nil {
			keys = 2
		}
		if st.BatchesWithoutEC != 2*keys {
			t.Fatalf("%+v: %d batches without curve arithmetic, want %d", *spec, st.BatchesWithoutEC, 2*keys)
		}
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
	if err := fx.inner.QS.Apply(&core.UpdateMsg{Filter: fc}); err != nil {
		t.Fatal(err)
	}

	t.Run("range", func(t *testing.T) {
		cl := fx.dial(t, fx.addr)
		if _, err := cl.QueryPlan(leaf(2000, 2090)); err != nil {
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
		if len(comp.Outer.Records) != 10 || len(matchedKeys(t, comp)) != 5 {
			t.Fatalf("%d records, %d matches; want 10 and 5", len(comp.Outer.Records), len(matchedKeys(t, comp)))
		}
		if st := cl.Stats(); st.Summaries < 40 {
			t.Fatalf("bridged %d summaries, want both relations' streams of 25", st.Summaries)
		}
	})
}

// BenchmarkVerifyComposite times the client's verification of one
// delivered BF join plan (59 outer rows × 1 projected attribute; the join
// side is one run holding the 20 matches plus the Bloom negatives at its
// edges) on the real scheme, single worker, caches warm — the steady
// state of a session repeating its plans: every claim is one the session
// knows, by content but for the partition certifications, so this is
// everything but the curve arithmetic and the digests. ≈12 µs, 587 B and
// 6 allocations per plan with -benchtime 3000x -cpu 1 on the 2-core box
// (≈68 µs, 7.5 KB and 18 while every repeat recomputed its digests to
// name its claims; ≈40 µs, 12.3 KB and 140 while every projected row had
// a digest and a Writer of its own; 63 µs, 23.3 KB and 159 when the 59
// keys were 59 point proofs).
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
