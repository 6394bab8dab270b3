package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"authdb/internal/chain"
	"authdb/internal/digest"
	"authdb/internal/freshness"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/xortest"
)

// The query server's differential: the layer below the engine held to
// the protocol written the obvious way. A seeded schedule of
// dissemination messages — a bulk load, inserts, re-signed records with
// new attribute values, a record moved to another key (a delete and an
// upsert at the same rid, as the owner sends it), deletes (of live keys
// and of keys the server never had), certified summaries — is applied to
// a QueryServer and to a sorted slice of the signed records. Now and then
// a message or an image with one corrupted chain or sideband signature is
// submitted instead, and must be refused with nothing changed. The load
// is too small to split the keyspace and no delta splits it; once, the
// server is swapped for a fresh one restored from its Snapshot, whose
// image has grown past the threshold and is split. After every step each
// read the server offers is compared with the slice: Query (records,
// boundaries, the anchor of an empty range and its neighbours, the
// aggregate, the oldest timestamp and the summaries attached),
// QueryProj's rows, AppendKeys under a cap, Len and Snapshot. Odd seeds
// carry a §3.4 sideband on every record.
const (
	qsOracleSeeds      = 20
	qsOracleShortSeeds = 4
	qsOracleSteps      = 300
	qsOracleKeys       = 2000 // keys are drawn from [0, qsOracleKeys)
)

type qsOracle struct {
	t      *testing.T
	rng    *rand.Rand
	scheme sigagg.Scheme
	priv   sigagg.PrivateKey
	proj   bool

	qs        *QueryServer
	restoreAt int
	restored  bool

	recs []SignedRecord // the obvious way: key-ascending
	sums []freshness.Summary
	now  int64
	rid  uint64 // last rid handed out
}

func newQSOracle(t *testing.T, seed int64) *qsOracle {
	scheme := xortest.New()
	priv, _, err := scheme.KeyGen(nil)
	if err != nil {
		t.Fatal(err)
	}
	o := &qsOracle{
		t: t, rng: rand.New(rand.NewSource(seed)), scheme: scheme, priv: priv,
		proj: seed%2 == 1, now: 100,
	}
	o.qs = NewQueryServer(scheme)
	o.restoreAt = qsOracleSteps/3 + o.rng.Intn(qsOracleSteps/3)

	// A sorted initial load, too small to split the keyspace.
	var keys []int64
	for n := 8 + o.rng.Intn(seedFactor*DefaultShards-8); len(keys) < n; {
		if k := o.rng.Int63n(qsOracleKeys); !slices.Contains(keys, k) {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	msg := &UpdateMsg{TS: o.now}
	for _, k := range keys {
		o.rid++
		msg.Upserts = append(msg.Upserts, o.signed(o.rid, k))
	}
	o.apply(msg)
	return o
}

func (o *qsOracle) sign(tag string) sigagg.Signature {
	d := digest.Sum([]byte(tag))
	sig, err := o.scheme.Sign(o.priv, d[:])
	if err != nil {
		o.t.Fatal(err)
	}
	return sig
}

// signed is a fresh version of rid under key at the current time.
func (o *qsOracle) signed(rid uint64, key int64) SignedRecord {
	val := []byte(fmt.Sprintf("v%d@%d", rid, o.now))
	rec := &Record{RID: rid, Key: key, TS: o.now}
	sr := SignedRecord{Rec: rec, Sig: o.sign(fmt.Sprintf("rec %d %d %d", rid, key, o.now))}
	if !o.proj {
		rec.Attrs = [][]byte{val}
		return sr
	}
	sr.AttrVals = [][]byte{val, []byte("const")}
	sr.AttrSigs = []sigagg.Signature{o.sign(fmt.Sprintf("a0 %d %d", rid, o.now)), o.sign(fmt.Sprintf("a1 %d %d", rid, o.now))}
	return sr
}

// at is the index of key's record in the slice, or where it would go.
func (o *qsOracle) at(key int64) (int, bool) {
	i := sort.Search(len(o.recs), func(i int) bool { return o.recs[i].Rec.Key >= key })
	return i, i < len(o.recs) && o.recs[i].Rec.Key == key
}

func (o *qsOracle) pick() *SignedRecord { return &o.recs[o.rng.Intn(len(o.recs))] }

// freeKey is a key neither stored nor already upserted by msg.
func (o *qsOracle) freeKey(msg *UpdateMsg) int64 {
	for {
		k := o.rng.Int63n(qsOracleKeys)
		if _, taken := o.at(k); !taken && !slices.ContainsFunc(msg.Upserts, func(sr SignedRecord) bool { return sr.Rec.Key == k }) {
			return k
		}
	}
}

// apply delivers msg to the server and folds it into the slice the way
// the protocol reads: deletions by key, then each upsert replacing
// whatever its key held.
func (o *qsOracle) apply(msg *UpdateMsg) {
	if err := o.qs.Apply(msg); err != nil {
		o.t.Fatalf("Apply: %v", err)
	}
	for _, del := range msg.Deletes {
		if i, ok := o.at(del.Key); ok {
			o.recs = slices.Delete(o.recs, i, i+1)
		}
	}
	for _, sr := range msg.Upserts {
		if i, ok := o.at(sr.Rec.Key); ok {
			o.recs[i] = sr
		} else {
			o.recs = slices.Insert(o.recs, i, sr)
		}
	}
	if msg.Summary != nil {
		o.sums = append(o.sums, *msg.Summary)
	}
}

func (o *qsOracle) step() {
	o.now += 1 + o.rng.Int63n(50)
	if msg := o.next(); o.rng.Intn(10) == 0 {
		o.refuse(msg)
	} else {
		o.apply(msg)
	}
}

// corrupt truncates one signature of sr, its chain signature or one of
// its sideband's, without touching the slices sr shares.
func (o *qsOracle) corrupt(sr *SignedRecord) {
	if n := len(sr.AttrSigs); n > 0 && o.rng.Intn(2) == 0 {
		sr.AttrSigs = slices.Clone(sr.AttrSigs)
		i := o.rng.Intn(n)
		sr.AttrSigs[i] = sr.AttrSigs[i][:len(sr.AttrSigs[i])-1]
		return
	}
	sr.Sig = sr.Sig[:len(sr.Sig)-1]
}

// refuse submits msg, or an image of the server, with one signature
// corrupted. The server must refuse it, and the slice is left as it was
// for the next check to hold the server to.
func (o *qsOracle) refuse(msg *UpdateMsg) {
	if len(msg.Upserts) > 0 && o.rng.Intn(3) > 0 {
		msg.Upserts = slices.Clone(msg.Upserts)
		o.corrupt(&msg.Upserts[o.rng.Intn(len(msg.Upserts))])
		if err := o.qs.Apply(msg); err == nil {
			o.t.Fatal("Apply accepted a message with a corrupted signature")
		}
		return
	}
	st := o.qs.Snapshot()
	o.corrupt(&st.Records[o.rng.Intn(len(st.Records))])
	if err := o.qs.Restore(st); err == nil {
		o.t.Fatal("Restore accepted an image with a corrupted signature")
	}
}

// next is the schedule's next message.
func (o *qsOracle) next() *UpdateMsg {
	msg := &UpdateMsg{TS: o.now}
	switch op := o.rng.Intn(20); {
	case op < 8 || len(o.recs) < 4: // one to three inserts
		for n := 1 + o.rng.Intn(3); n > 0; n-- {
			o.rid++
			msg.Upserts = append(msg.Upserts, o.signed(o.rid, o.freeKey(msg)))
		}
	case op < 12: // a record re-signed with new attribute values
		r := o.pick()
		msg.Upserts = append(msg.Upserts, o.signed(r.Rec.RID, r.Rec.Key))
	case op < 14: // a record moved to another key: deleted, and upserted at its rid
		r := o.pick()
		msg.Deletes = append(msg.Deletes, r.Rec.Ref())
		msg.Upserts = append(msg.Upserts, o.signed(r.Rec.RID, o.freeKey(msg)))
	case op < 17: // a delete, one in four of a key the server never had
		del := o.pick().Rec.Ref()
		if o.rng.Intn(4) == 0 {
			del = chain.Ref{Key: o.freeKey(msg), RID: o.rid + 1000}
		}
		msg.Deletes = append(msg.Deletes, del)
	default: // a delete and an insert in one message
		msg.Deletes = append(msg.Deletes, o.pick().Rec.Ref())
		o.rid++
		msg.Upserts = append(msg.Upserts, o.signed(o.rid, o.freeKey(msg)))
	}
	if o.rng.Intn(5) == 0 {
		msg.Summary = &freshness.Summary{Seq: uint64(len(o.sums) + 1), TS: o.now, Sig: o.sign(fmt.Sprintf("sum %d", o.now))}
	}
	return msg
}

// restore swaps the server for a fresh one restored from its snapshot,
// an image past the threshold, which the restore splits.
func (o *qsOracle) restore() {
	fresh := NewQueryServer(o.scheme)
	if err := fresh.Restore(o.qs.Snapshot()); err != nil {
		o.t.Fatalf("Restore: %v", err)
	}
	if len(o.recs) < seedFactor*DefaultShards || fresh.bounds == nil {
		o.t.Fatalf("the restore of %d records left the keyspace unsplit", len(o.recs))
	}
	o.qs, o.restored = fresh, true
}

// answer is the range selection written the obvious way, with the oldest
// signature timestamp it covers.
func (o *qsOracle) answer(lo, hi int64) (*chain.Answer, int64) {
	a := &chain.Answer{Lo: lo, Hi: hi, Left: chain.MinRef, Right: chain.MaxRef}
	i, _ := o.at(lo)
	j := sort.Search(len(o.recs), func(j int) bool { return o.recs[j].Rec.Key > hi })
	ref := func(k int) chain.Ref { return o.recs[k].Rec.Ref() }
	if i == j { // empty: anchored on the left boundary, else the right one
		k := i - 1
		if k < 0 {
			k = i
		}
		a.Anchor, a.Agg = o.recs[k].Rec, o.recs[k].Sig
		a.AnchorLeft = chain.MinRef
		if k > 0 {
			a.AnchorLeft = ref(k - 1)
		}
		if k+1 < len(o.recs) {
			a.Right = ref(k + 1)
		}
		return a, a.Anchor.TS
	}
	if i > 0 {
		a.Left = ref(i - 1)
	}
	if j < len(o.recs) {
		a.Right = ref(j)
	}
	oldest := int64(-1)
	var sigs []sigagg.Signature
	for _, sr := range o.recs[i:j] {
		a.Records = append(a.Records, sr.Rec)
		sigs = append(sigs, sr.Sig)
		if oldest == -1 || sr.Rec.TS < oldest {
			oldest = sr.Rec.TS
		}
	}
	agg, err := o.scheme.Aggregate(sigs)
	if err != nil {
		o.t.Fatal(err)
	}
	a.Agg = agg
	return a, oldest
}

func sameSummaries(a, b []freshness.Summary) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

func (o *qsOracle) check(step int) {
	t := o.t
	if got, want := o.qs.Len(), len(o.recs); got != want {
		t.Fatalf("step %d: Len = %d, slice holds %d", step, got, want)
	}
	if !o.restored && o.qs.bounds != nil {
		t.Fatalf("step %d: a delta split the keyspace", step)
	}
	for q := 0; q < 4; q++ {
		lo := o.rng.Int63n(qsOracleKeys+200) - 100
		hi := lo + o.rng.Int63n(300)
		if q == 0 {
			hi = lo
		}
		o.checkRange(step, lo, hi)
	}

	lo := o.rng.Int63n(qsOracleKeys)
	hi, max := lo+o.rng.Int63n(800), 1+o.rng.Intn(12)
	if o.rng.Intn(3) == 0 {
		max = qsOracleKeys
	}
	var want []int64
	i, _ := o.at(lo)
	for ; i < len(o.recs) && o.recs[i].Rec.Key <= hi && len(want) < max; i++ {
		want = append(want, o.recs[i].Rec.Key)
	}
	if got, _ := o.qs.AppendKeys(nil, lo, hi, max); !slices.Equal(got, want) {
		t.Fatalf("step %d: AppendKeys(%d, %d, %d) = %v, slice says %v", step, lo, hi, max, got, want)
	}

	st := o.qs.Snapshot()
	if !reflect.DeepEqual(st.Records, o.recs) || !reflect.DeepEqual(st.Summaries, o.sums) || st.Filter != nil {
		t.Fatalf("step %d: Snapshot holds %d records and %d summaries, the slice %d and %d",
			step, len(st.Records), len(st.Summaries), len(o.recs), len(o.sums))
	}
}

func (o *qsOracle) checkRange(step int, lo, hi int64) {
	t := o.t
	want, oldest := o.answer(lo, hi)
	got, err := scan(o.qs, lo, hi)
	if err != nil {
		t.Fatalf("step %d: Query(%d, %d): %v", step, lo, hi, err)
	}
	if !reflect.DeepEqual(got.Chain, want) {
		t.Fatalf("step %d: Query(%d, %d) =\n%+v\nslice says\n%+v", step, lo, hi, got.Chain, want)
	}
	if got.OldestSigTS != oldest {
		t.Fatalf("step %d: Query(%d, %d) oldest signature at %d, slice says %d", step, lo, hi, got.OldestSigTS, oldest)
	}
	k := sort.Search(len(o.sums), func(k int) bool { return o.sums[k].TS >= oldest })
	if !sameSummaries(got.Summaries, o.sums[k:]) {
		t.Fatalf("step %d: Query(%d, %d) attached %d summaries, slice says %d", step, lo, hi, len(got.Summaries), len(o.sums)-k)
	}

	pans, rows, _, err := o.qs.QueryProj(lo, hi)
	if !o.proj && len(want.Records) > 0 {
		if err == nil {
			t.Fatalf("step %d: QueryProj(%d, %d) answered over records without a sideband", step, lo, hi)
		}
		return
	}
	if err != nil {
		t.Fatalf("step %d: QueryProj(%d, %d): %v", step, lo, hi, err)
	}
	if !reflect.DeepEqual(pans.Chain, want) || len(pans.Summaries) != 0 {
		t.Fatalf("step %d: QueryProj(%d, %d) answer differs from the slice's", step, lo, hi)
	}
	if len(rows) != len(want.Records) {
		t.Fatalf("step %d: QueryProj(%d, %d) returned %d rows for %d records", step, lo, hi, len(rows), len(want.Records))
	}
	i, _ := o.at(lo)
	for r, row := range rows {
		sr := o.recs[i+r]
		if row.RID != sr.Rec.RID || row.TS != sr.Rec.TS || !reflect.DeepEqual(row.Vals, sr.AttrVals) || len(row.Ops) != len(sr.AttrSigs) {
			t.Fatalf("step %d: QueryProj(%d, %d) row %d = %+v, slice holds %+v", step, lo, hi, r, row, sr)
		}
		for s, op := range row.Ops {
			sum := o.qs.folder.NewSum()
			sum.Fold(op)
			if enc, err := sum.Encode(nil); err != nil || string(enc) != string(sr.AttrSigs[s]) {
				t.Fatalf("step %d: QueryProj(%d, %d) row %d slot %d holds another signature", step, lo, hi, r, s)
			}
		}
	}
}

func TestQueryServerMatchesSortedSlice(t *testing.T) {
	seeds := qsOracleSeeds
	if testing.Short() || raceEnabled {
		seeds = qsOracleShortSeeds
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		// A failing seed is named by its subtest: replay it alone with
		// -run 'TestQueryServerMatchesSortedSlice/seed=N'.
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			o := newQSOracle(t, seed)
			o.check(0)
			for step := 1; step <= qsOracleSteps; step++ {
				if step == o.restoreAt {
					o.restore()
				}
				o.step()
				o.check(step)
			}
		})
	}
}
