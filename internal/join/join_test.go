// The join section's pieces — Extents, Probe, AddNegative, Resolve,
// PartitionJob — are tested through the stand-alone builder and verifier
// assembled from them, internal/repro/joinproof.
package join_test

import (
	"crypto/rand"
	"errors"
	"fmt"
	"strings"
	"testing"

	"authdb/internal/bloom"
	"authdb/internal/chain"
	"authdb/internal/join"
	"authdb/internal/repro/joinproof"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
)

type fixture struct {
	scheme sigagg.Scheme
	priv   sigagg.PrivateKey
	pub    sigagg.PublicKey
	s      *joinproof.Relation
	fc     *join.FilterCert
}

// newFixture builds an S relation whose B values are the even numbers
// 2..2n (each duplicated dup times), plus a certified partitioned filter.
func newFixture(t *testing.T, n, dup, valsPerPart int) *fixture {
	t.Helper()
	scheme := bas.New(0)
	priv, pub, err := scheme.KeyGen(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	var recs []*chain.Record
	rid := uint64(1)
	for i := 1; i <= n; i++ {
		v := int64(i * 2)
		for d := 0; d < dup; d++ {
			recs = append(recs, &chain.Record{
				RID: rid, Key: v, TS: 10,
				Attrs: [][]byte{[]byte(fmt.Sprintf("s-%d-%d", v, d))},
			})
			rid++
		}
	}
	rel, err := joinproof.BuildRelation(scheme, priv, recs)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := joinproof.CertifyFilter(scheme, priv, rel, valsPerPart, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{scheme: scheme, priv: priv, pub: pub, s: rel, fc: fc}
}

func TestBuildVerifyBV(t *testing.T) {
	f := newFixture(t, 50, 2, 4)
	// R.A values: 10, 20 match; 11, 21 do not. S holds nothing between 10
	// and 11 or between 20 and 21, and four other values between 11 and 20.
	ra := []int64{10, 20, 11, 21}
	ans, err := joinproof.Build(f.scheme, join.BV, ra, f.s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Runs) != 2 || ans.Runs[0].Lo != 10 || ans.Runs[0].Hi != 11 || ans.Runs[1].Lo != 20 || ans.Runs[1].Hi != 21 {
		t.Fatalf("runs %+v, want [10,11] and [20,21]", ans.Runs)
	}
	// Each matched value has dup=2 S records.
	if len(ans.Runs[0].Records) != 2 {
		t.Fatalf("run returned %d records, want 2", len(ans.Runs[0].Records))
	}
	res, err := joinproof.Verify(f.scheme, f.pub, ra, ans)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if res != (join.Resolution{Matched: 2, Absent: 2}) {
		t.Fatalf("resolution %+v, want 2 matched and 2 absent", res)
	}
}

func TestBuildVerifyBF(t *testing.T) {
	f := newFixture(t, 200, 1, 4)
	var ra []int64
	for v := int64(3); v < 100; v += 2 { // all odd: unmatched
		ra = append(ra, v)
	}
	ra = append(ra, 40, 50, 60) // matched
	ans, err := joinproof.Build(f.scheme, join.BF, ra, f.s, f.fc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := joinproof.Verify(f.scheme, f.pub, ra, ans)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if res.Matched != 3 || res.Matched+res.Absent+res.Negatives != len(ra) || res.Negatives == 0 {
		t.Fatalf("resolution %+v over %d values, want 3 matched and Bloom negatives", res, len(ra))
	}
	if ans.FilterTS != f.fc.TS {
		t.Fatalf("FilterTS %d, want the certificate's %d", ans.FilterTS, f.fc.TS)
	}
}

// TestRunsMergeWhereSHoldsNothingElse: against an S whose values are all
// R.A values — a primary-key/foreign-key join — the whole S side is one
// run, whatever the method, and a join.BF section whose keys the filter all
// admits states no filter time.
func TestRunsMergeWhereSHoldsNothingElse(t *testing.T) {
	f := newFixture(t, 30, 1, 4) // S.B = 2, 4, …, 60
	var ra []int64
	for v := int64(1); v <= 61; v++ {
		ra = append(ra, v)
	}
	for _, method := range []join.Method{join.BV, join.BF} {
		ans, err := joinproof.Build(f.scheme, method, ra, f.s, f.fc)
		if err != nil {
			t.Fatal(err)
		}
		if len(ans.Runs) != 1 {
			t.Fatalf("%v: %d runs, want 1", method, len(ans.Runs))
		}
		res, err := joinproof.Verify(f.scheme, f.pub, ra, ans)
		if err != nil {
			t.Fatalf("%v: %v", method, err)
		}
		if res.Matched != 30 || res.Matched+res.Absent+res.Negatives != 61 {
			t.Fatalf("%v: resolution %+v", method, res)
		}
		if (ans.FilterTS != 0) != (len(ans.Negatives) > 0) {
			t.Fatalf("%v: FilterTS %d with %d partitions listed", method, ans.FilterTS, len(ans.Negatives))
		}
	}
}

func TestExtents(t *testing.T) {
	keys := []int64{10, 20, 30, 40, 50, 60}
	all := func(bits string) []bool {
		out := make([]bool, len(bits))
		for i, c := range bits {
			out[i] = c == '1'
		}
		return out
	}
	for _, tc := range []struct {
		name      string
		live      []bool
		inner     []int64
		truncated bool
		want      [][2]int
	}{
		{"S empty over the span", nil, nil, false, [][2]int{{0, 5}}},
		{"S inside R", nil, []int64{20, 20, 50}, false, [][2]int{{0, 5}}},
		{"a stranger splits", nil, []int64{20, 35, 50}, false, [][2]int{{0, 2}, {3, 5}}},
		{"strangers in every gap", nil, []int64{15, 25, 35, 45, 55}, false, [][2]int{{0, 0}, {1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}}},
		{"runs start and end at live keys", all("011010"), []int64{30}, false, [][2]int{{1, 4}}},
		{"a stretch without a live key ships no run", all("100001"), []int64{15, 55}, false, [][2]int{{0, 0}, {5, 5}}},
		{"no live key", all("000000"), nil, false, nil},
		{"nothing known past a truncated walk", nil, []int64{10, 20, 30}, true, [][2]int{{0, 2}, {3, 3}, {4, 4}, {5, 5}}},
	} {
		got := join.Extents(keys, tc.live, tc.inner, tc.truncated)
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: extents %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestResolveRejects: every way a section's shape can fail its outer
// keys, before any signature is looked at.
func TestResolveRejects(t *testing.T) {
	f := newFixture(t, 50, 1, 4) // S.B = 2, 4, …, 100
	keys := []int64{9, 10, 11, 12, 31, 32}
	build := func(method join.Method) *join.Answer {
		ans, err := joinproof.Build(f.scheme, method, keys, f.s, f.fc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := joinproof.Verify(f.scheme, f.pub, keys, ans); err != nil {
			t.Fatal(err)
		}
		return ans
	}
	if bv := build(join.BV); len(bv.Runs) != 2 || len(bv.Runs[0].Records) != 2 {
		t.Fatalf("fixture: BV runs %+v, want [9,12] with two records and [31,32]", bv.Runs)
	}
	copyRun := func(r *chain.Answer) *chain.Answer { c := *r; return &c }
	for _, tc := range []struct {
		name   string
		method join.Method
		forge  func(a *join.Answer)
		want   string
	}{
		{"Hi pulled in", join.BV, func(a *join.Answer) { a.Runs[0] = copyRun(a.Runs[0]); a.Runs[0].Hi = 11 }, "holds a record whose key 12 is no outer key"},
		{"Hi pulled in and the record dropped", join.BV, func(a *join.Answer) {
			a.Runs[1] = copyRun(a.Runs[1])
			a.Runs[1].Hi, a.Runs[1].Records = 31, nil
		}, "outer key 32 has no join proof"},
		{"run dropped", join.BV, func(a *join.Answer) { a.Runs = a.Runs[:1] }, "outer key 31 has no join proof"},
		{"runs overlap", join.BV, func(a *join.Answer) { a.Runs = append(a.Runs, a.Runs[1]) }, "overlap or are out of order"},
		{"runs out of order", join.BV, func(a *join.Answer) { a.Runs[0], a.Runs[1] = a.Runs[1], a.Runs[0] }, "overlap or are out of order"},
		{"run over no outer key", join.BV, func(a *join.Answer) {
			extra := copyRun(a.Runs[1])
			extra.Lo, extra.Hi, extra.Records = 40, 41, nil
			a.Runs = append(a.Runs, extra)
		}, "run [40,41] contains no outer key"},
		{"run widened over a stranger", join.BV, func(a *join.Answer) {
			r := copyRun(a.Runs[0])
			r.Hi, r.Records = 32, f.s.Recs[4:16] // 10 … 32
			a.Runs = []*chain.Answer{r}
		}, "holds a record whose key 14 is no outer key"},
		{"filter time without negatives", join.BV, func(a *join.Answer) { a.FilterTS = 7 }, "stated without a Bloom negative"},
		{"negatives in a BV join", join.BV, func(a *join.Answer) {
			a.Negatives = []join.Negatives{{Partition: &f.fc.PF.Partitions[0], PartSig: f.fc.Sigs[0], Keys: []int64{1}}}
		}, "Bloom negatives in a BV join"},
		{"key resolved twice", join.BF, func(a *join.Answer) {
			g := &a.Negatives[len(a.Negatives)-1]
			r := copyRun(a.Runs[len(a.Runs)-1])
			r.Lo, r.Hi = min(r.Lo, g.Keys[0]), max(r.Hi, g.Keys[0])
			a.Runs[len(a.Runs)-1] = r
		}, "resolved twice"},
		{"negative for no outer key", join.BF, func(a *join.Answer) {
			g := &a.Negatives[len(a.Negatives)-1]
			g.Keys = append(g.Keys, 33)
		}, "no outer key or out of order"},
		{"partition listed twice", join.BF, func(a *join.Answer) {
			g := a.Negatives[0]
			a.Negatives = append([]join.Negatives{{Partition: g.Partition, PartSig: g.PartSig, Keys: g.Keys[:1]}}, a.Negatives...)
		}, "listed twice or out of order"},
		{"partition without keys", join.BF, func(a *join.Answer) { a.Negatives[0].Keys = nil }, "without keys"},
	} {
		ans := build(tc.method)
		if tc.method == join.BF && (len(ans.Negatives) == 0 || len(ans.Runs) == 0) {
			t.Fatalf("fixture: BF section has %d runs and %d partitions", len(ans.Runs), len(ans.Negatives))
		}
		tc.forge(ans)
		_, err := ans.Resolve(keys, nil)
		if !errors.Is(err, sigagg.ErrVerify) || !strings.Contains(fmt.Sprint(err), tc.want) {
			t.Errorf("%s: %v, want ErrVerify naming %q", tc.name, err, tc.want)
		}
	}
}

func TestBFFalsePositiveFallsBackToBoundary(t *testing.T) {
	// A tiny filter (1 bit/key) false-positives often; every value it
	// admits wrongly is still proven absent, by the boundaries of the run
	// over it.
	scheme := bas.New(0)
	priv, pub, err := scheme.KeyGen(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	var recs []*chain.Record
	for i := 1; i <= 100; i++ {
		recs = append(recs, &chain.Record{RID: uint64(i), Key: int64(i * 2), TS: 1})
	}
	rel, _ := joinproof.BuildRelation(scheme, priv, recs)
	fc, err := joinproof.CertifyFilter(scheme, priv, rel, 8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var ra []int64
	for v := int64(3); v < 200; v += 2 {
		ra = append(ra, v)
	}
	ans, err := joinproof.Build(scheme, join.BF, ra, rel, fc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := joinproof.Verify(scheme, pub, ra, ans)
	if err != nil {
		t.Fatalf("joinproof.Verify with false positives: %v", err)
	}
	if res.Absent == 0 || res.Negatives == 0 || res.Matched != 0 {
		t.Fatalf("resolution %+v: expected false positives and negatives with 1 bit/key", res)
	}
}

func TestVerifyRejectsFakeNonMatch(t *testing.T) {
	f := newFixture(t, 50, 1, 4)
	// 40 IS in S; server claims it unmatched using a forged negative
	// partition (zeroed filter).
	ans, err := joinproof.Build(f.scheme, join.BF, []int64{41}, f.s, f.fc)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Negatives) != 1 {
		t.Skip("41 false-positived; test needs a clean negative")
	}
	g := &ans.Negatives[0]
	g.Keys[0] = 40
	fake := *g.Partition
	fake.Filter = bloom.New(fake.Filter.M(), fake.Filter.K()) // all-zero bits
	g.Partition = &fake
	_, err = joinproof.Verify(f.scheme, f.pub, []int64{40}, ans)
	if !errors.Is(err, sigagg.ErrVerify) {
		t.Fatalf("forged partition: want ErrVerify, got %v", err)
	}
}

func TestVerifyRejectsWrongPartition(t *testing.T) {
	f := newFixture(t, 100, 1, 4)
	ans, err := joinproof.Build(f.scheme, join.BF, []int64{11}, f.s, f.fc)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Negatives) != 1 {
		t.Skip("11 false-positived; test needs a clean negative")
	}
	// Present a genuine certified partition that does not cover 11.
	last := len(f.fc.PF.Partitions) - 1
	ans.Negatives[0].Partition = &f.fc.PF.Partitions[last]
	ans.Negatives[0].PartSig = f.fc.Sigs[last]
	_, err = joinproof.Verify(f.scheme, f.pub, []int64{11}, ans)
	if !errors.Is(err, sigagg.ErrVerify) {
		t.Fatalf("wrong partition: want ErrVerify, got %v", err)
	}
}

func TestVerifyRejectsWrongFilterTS(t *testing.T) {
	f := newFixture(t, 100, 1, 4)
	ra := []int64{11, 13, 15}
	ans, err := joinproof.Build(f.scheme, join.BF, ra, f.s, f.fc)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Negatives) == 0 {
		t.Skip("every value false-positived; test needs a negative")
	}
	ans.FilterTS++
	if _, err = joinproof.Verify(f.scheme, f.pub, ra, ans); !errors.Is(err, sigagg.ErrVerify) {
		t.Fatalf("a later filter time than certified: want ErrVerify, got %v", err)
	}
}

func TestVerifyRejectsDroppedMatchRecord(t *testing.T) {
	f := newFixture(t, 20, 3, 4)
	ans, err := joinproof.Build(f.scheme, join.BV, []int64{10}, f.s, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := ans.Runs[0]
	if len(m.Records) != 3 {
		t.Fatalf("want 3 duplicates, got %d", len(m.Records))
	}
	// Drop the middle duplicate and rebuild the aggregate from the
	// remaining two signatures.
	lo := 12 // the first of the three records of value 10
	m.Records = []*chain.Record{m.Records[0], m.Records[2]}
	m.Agg, _ = f.scheme.AggregateInto(nil, []sigagg.Signature{f.s.Sigs[lo], f.s.Sigs[lo+2]})
	_, err = joinproof.Verify(f.scheme, f.pub, []int64{10}, ans)
	if !errors.Is(err, sigagg.ErrVerify) {
		t.Fatalf("dropped duplicate: want ErrVerify, got %v", err)
	}
}

func TestZViability(t *testing.T) {
	// Paper: IB/p >= 2.83 at IA/IB = 1; IB/p >= 6.29 at IA/IB = 10.
	if joinproof.Z(1, 2.83) > joinproof.ZThreshold+0.01 {
		t.Fatalf("joinproof.Z(1, 2.83) = %f, want <= 0.75", joinproof.Z(1, 2.83))
	}
	if joinproof.Z(1, 2.5) < joinproof.ZThreshold {
		t.Fatalf("joinproof.Z(1, 2.5) = %f, want > 0.75", joinproof.Z(1, 2.5))
	}
	if joinproof.Z(10, 6.29) > joinproof.ZThreshold+0.01 {
		t.Fatalf("joinproof.Z(10, 6.29) = %f, want <= 0.75", joinproof.Z(10, 6.29))
	}
	if joinproof.Z(10, 5) < joinproof.ZThreshold {
		t.Fatalf("joinproof.Z(10, 5) = %f, want > 0.75", joinproof.Z(10, 5))
	}
}
