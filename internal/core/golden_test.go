package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"authdb/internal/projection"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
)

// servedAggregatesGolden is the SHA-256 over every aggregate the
// scenario below serves, recorded from the code before aggregation moved
// onto decoded operands (PR 14, commit 39abe6a). A curve point has one
// compressed encoding, so however the server groups its additions the
// proof bytes — and with them the wire format, the answer cache and
// wire_bytes_per_answer — must not move.
const servedAggregatesGolden = "13b5e020f8a612e6800923544f8872b1ec641101ddcf836b06946068fccc1654"

func TestServedAggregatesGolden(t *testing.T) {
	cat, err := NewCatalog(bas.New(0), DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := cat.AddRelation("o", rand.New(rand.NewSource(15)),
		[]DAOption{WithAttrSigning()}, []Option{WithShards(4)})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*Record, 200)
	for i := range recs {
		recs[i] = &Record{Key: int64(i+1) * 10, Attrs: [][]byte{
			[]byte(fmt.Sprintf("a-%d", i)), []byte(fmt.Sprintf("b-%d", i))}}
	}
	deliver := func(msg *UpdateMsg, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := rel.Deliver(msg); err != nil {
			t.Fatal(err)
		}
	}
	// Bulk load, then every incremental path: in-place update, insert
	// between keys, delete, period close.
	deliver(rel.DA.Load(recs, 100))
	for i := 0; i < 20; i++ {
		deliver(rel.DA.Update(int64(i*9+3)*10, [][]byte{[]byte("u"), []byte(fmt.Sprint(i))}, int64(200+i)))
	}
	for i := 0; i < 10; i++ {
		deliver(rel.DA.Insert(&Record{Key: int64(i*170 + 5), Attrs: [][]byte{[]byte("n"), []byte(fmt.Sprint(i))}}, int64(300+i)))
	}
	deliver(rel.DA.Delete(500, 400))
	deliver(rel.DA.Delete(1230, 401))
	deliver(rel.DA.ClosePeriod(1_000))

	h := sha256.New()
	for _, r := range [][2]int64{{1, 2000}, {10, 10}, {15, 95}, {480, 1260}, {333, 334}, {1995, 2000}, {5, 1705}} {
		ans, rows, _, err := rel.QS.QueryProj(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		h.Write(ans.Chain.Agg)
		if len(rows) == 0 {
			continue
		}
		prows := make([]projection.Row, len(rows))
		ops := make([][]sigagg.Operand, len(rows))
		for i, row := range rows {
			prows[i] = projection.Row{RID: row.RID, TS: row.TS, Values: [][]byte{row.Vals[1]}}
			ops[i] = row.Ops
		}
		pans, err := projection.Build(rel.Scheme, []int{1}, prows, ops)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(pans.Agg)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != servedAggregatesGolden {
		t.Fatalf("served aggregates changed: digest %s, recorded %s", got, servedAggregatesGolden)
	}
}

// ownerMessagesGolden is the SHA-256 over every field of every message
// the owner scenario below emits, and of the filter it certifies,
// recorded before the owner's operations shared one certification step.
// The scheme signs deterministically, so the same versions certified
// against the same neighbours in the same order give the same bytes.
const ownerMessagesGolden = "23e6b3c7c558af16381c4f421d0075ae40057357bf5a4ba52c51d55a39261ad6"

// hashInt and hashBytes feed the owner golden: every variable-length
// field carries its length, and a nil slice hashes apart from an empty
// one.
func hashInt(h hash.Hash, v int64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

func hashBytes(h hash.Hash, b []byte) {
	if b == nil {
		hashInt(h, -1)
		return
	}
	hashInt(h, int64(len(b)))
	h.Write(b)
}

func hashMsg(h hash.Hash, msg *UpdateMsg) {
	hashInt(h, msg.TS)
	hashInt(h, int64(len(msg.Upserts)))
	for _, up := range msg.Upserts {
		r := up.Rec
		hashInt(h, int64(r.RID))
		hashInt(h, r.Key)
		hashInt(h, r.TS)
		hashInt(h, int64(len(r.Attrs)))
		if r.Attrs == nil {
			hashInt(h, -1)
		}
		for _, a := range r.Attrs {
			hashBytes(h, a)
		}
		hashBytes(h, up.Sig)
		hashInt(h, int64(len(up.AttrVals)))
		if up.AttrVals == nil {
			hashInt(h, -1)
		}
		for _, a := range up.AttrVals {
			hashBytes(h, a)
		}
		hashInt(h, int64(len(up.AttrSigs)))
		for _, s := range up.AttrSigs {
			hashBytes(h, s)
		}
	}
	hashInt(h, int64(len(msg.Deletes)))
	for _, del := range msg.Deletes {
		hashInt(h, int64(del.RID))
	}
	if s := msg.Summary; s != nil {
		hashInt(h, int64(s.Seq))
		hashInt(h, s.PeriodStart)
		hashInt(h, s.TS)
		hashBytes(h, s.Compressed)
		hashBytes(h, s.Sig)
	} else {
		hashInt(h, -1)
	}
	hashInt(h, boolInt(msg.Filter != nil))
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestOwnerMessagesGolden holds every owner operation to the bytes it
// emitted when recorded: a shuffled load into an empty relation, a merge
// load across seams and past both ends, updates (one key twice in a
// period), inserts at both ends, in the middle and two at one timestamp,
// deletes of both ends and the middle, four period closes (the last three
// re-certifying multi-updated records), two renewals and a certified
// filter — on a projection-mode relation and a plain one.
func TestOwnerMessagesGolden(t *testing.T) {
	cat, err := NewCatalog(bas.New(0), DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	msgs := 0
	for i, name := range []string{"p", "r"} {
		var daOpts []DAOption
		if name == "p" {
			daOpts = append(daOpts, WithAttrSigning())
		}
		rel, err := cat.AddRelation(name, rand.New(rand.NewSource(int64(31+i))), daOpts, []Option{WithShards(2)})
		if err != nil {
			t.Fatal(err)
		}
		da := rel.DA
		rng := rand.New(rand.NewSource(int64(7 + i)))
		attrs := func(tag string, k int64) [][]byte {
			return [][]byte{[]byte(fmt.Sprintf("%s-%s-%d", name, tag, k)), []byte(fmt.Sprint(rng.Intn(1000)))}
		}
		deliver := func(msg *UpdateMsg, err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			if err := rel.Deliver(msg); err != nil {
				t.Fatal(err)
			}
			hashMsg(h, msg)
			msgs++
		}

		// Period 1: a shuffled load of keys 10..600, then a merge load
		// below, between (two at one seam) and above the stored keys.
		var recs []*Record
		for k := int64(10); k <= 600; k += 10 {
			recs = append(recs, &Record{Key: k, Attrs: attrs("load", k)})
		}
		rng.Shuffle(len(recs), func(a, b int) { recs[a], recs[b] = recs[b], recs[a] })
		deliver(da.Load(recs, 100))
		var merge []*Record
		for _, k := range []int64{700, 255, 5, 256, 15, 605} {
			merge = append(merge, &Record{Key: k, Attrs: attrs("merge", k)})
		}
		deliver(da.Load(merge, 150))
		for j, k := range []int64{30, 120, 300, 120, 480} {
			deliver(da.Update(k, attrs("u1", k), int64(200+j)))
		}
		deliver(da.Insert(&Record{Key: 1, Attrs: attrs("ins", 1)}, 300))
		deliver(da.Insert(&Record{Key: 800, Attrs: attrs("ins", 800)}, 301))
		deliver(da.Insert(&Record{Key: 333, Attrs: attrs("ins", 333)}, 302))
		deliver(da.Insert(&Record{Key: 334, Attrs: attrs("ins", 334)}, 303))
		deliver(da.Insert(&Record{Key: 335, Attrs: attrs("ins", 335)}, 303))
		deliver(da.ClosePeriod(1_000))

		// Period 2: updates (two keys twice), deletes of both ends and
		// the middle.
		for j, k := range []int64{40, 40, 90, 500, 500} {
			deliver(da.Update(k, attrs("u2", k), int64(1_100+j)))
		}
		deliver(da.Delete(1, 1_200))
		deliver(da.Delete(800, 1_201))
		deliver(da.Delete(334, 1_202))
		deliver(da.ClosePeriod(2_000))

		// Periods 3 and 4: more multi-updates for the closes to re-certify.
		for j, k := range []int64{60, 60, 70, 255, 255} {
			deliver(da.Update(k, attrs("u3", k), int64(2_100+j)))
		}
		deliver(da.ClosePeriod(3_000))
		deliver(da.Update(600, attrs("u4", 600), 3_100))
		deliver(da.ClosePeriod(4_000))

		// Renewal: a partial batch, then the rest.
		for _, r := range []struct {
			now    int64
			budget int
		}{{903_000, 7}, {905_000, 1_000}} {
			msg, n, err := da.RenewOld(r.now, r.budget)
			hashInt(h, int64(n))
			deliver(msg, err)
		}

		fc, err := da.CertifyFilter(16, 8, 906_000)
		if err != nil {
			t.Fatal(err)
		}
		hashInt(h, fc.TS)
		hashInt(h, int64(fc.PF.Distinct()))
		for _, d := range fc.PF.Digests() {
			h.Write(d[:])
		}
		for _, s := range fc.Sigs {
			hashBytes(h, s)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != ownerMessagesGolden {
		t.Fatalf("owner messages changed: digest %s over %d messages, recorded %s", got, msgs, ownerMessagesGolden)
	}
}
