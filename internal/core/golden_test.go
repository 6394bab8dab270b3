package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
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
