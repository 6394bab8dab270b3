package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"authdb/internal/anscache"
	"authdb/internal/core"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
	"authdb/internal/wire"
)

// A write the server refuses leaves it as it was: the record count, the
// image it snapshots to, every epoch an answer can be stamped with, and
// the answers already cached. Both write paths stage what can fail — the
// signatures decoded, the sideband prepared, a whole image built — before
// they lock anything or touch a shard.

// refusalServer is a loaded 512-record bas relation, split into its
// default shards, with one answer resident in its cache. proj makes it a
// projection-mode relation (every record carries a §3.4 sideband).
func refusalServer(t *testing.T, proj bool) *core.Relation {
	t.Helper()
	cat, err := core.NewCatalog(bas.New(0), core.DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var daOpts []core.DAOption
	if proj {
		daOpts = append(daOpts, core.WithAttrSigning())
	}
	rel, err := cat.AddRelation("r", nil, daOpts, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*core.Record, 512)
	for i := range recs {
		recs[i] = &core.Record{Key: int64(i+1) * 10, Attrs: [][]byte{[]byte(fmt.Sprintf("v%d", i)), []byte("c")}}
	}
	msg, err := rel.DA.Load(recs, 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := rel.Deliver(msg); err != nil {
		t.Fatal(err)
	}
	codec := core.AnswerCodec{Encode: func(a *core.Answer) ([]byte, error) { return wire.AppendAnswerCore(nil, a) }}
	if err := rel.QS.EnableAnswerCache(codec); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // built and refused, built and kept, hit
		serveCached(t, rel.QS)
	}
	return rel
}

// serveCached serves the cached range and reports whether it was a hit.
func serveCached(t *testing.T, qs *core.QueryServer) bool {
	t.Helper()
	sv, err := qs.Serve(1000, 2000)
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Release()
	return sv.Source == core.ServedHit
}

// refusalView is what a refused write must leave unchanged.
type refusalView struct {
	n      int
	image  []byte
	epochs anscache.Stamp // every shard's epoch and the filter's
}

func viewOf(t *testing.T, qs *core.QueryServer) refusalView {
	t.Helper()
	st := qs.Snapshot()
	v := refusalView{n: qs.Len(), image: wire.AppendImage(nil, st)}
	for _, sr := range st.Records {
		qs.StampKey(&v.epochs, sr.Rec.Key)
	}
	qs.Filter(&v.epochs)
	if got, want := v.epochs.Len(), qs.Shards()+1; got != want {
		t.Fatalf("the records reach %d epochs, want all %d", got, want)
	}
	return v
}

func (v refusalView) check(t *testing.T, qs *core.QueryServer, what string) {
	t.Helper()
	if got := qs.Len(); got != v.n {
		t.Fatalf("%s: Len = %d, was %d", what, got, v.n)
	}
	if got := wire.AppendImage(nil, qs.Snapshot()); !bytes.Equal(got, v.image) {
		t.Fatalf("%s: the server's image changed", what)
	}
	if !v.epochs.Valid() {
		t.Fatalf("%s: an epoch moved", what)
	}
	if !serveCached(t, qs) {
		t.Fatalf("%s: the cached answer no longer hits", what)
	}
}

// corrupt returns a copy of sig with its last byte changed so that the
// scheme refuses to decode it.
func corrupt(t *testing.T, scheme sigagg.Scheme, sig sigagg.Signature) sigagg.Signature {
	t.Helper()
	f := sigagg.FolderFor(scheme)
	for b := 1; b < 256; b++ {
		bad := append(sigagg.Signature(nil), sig...)
		bad[len(bad)-1] ^= byte(b)
		if _, err := f.Prepare(bad); err != nil {
			return bad
		}
	}
	t.Fatal("every change to the last byte still decodes")
	return nil
}

// corruptLast corrupts the last record of srs: its chain signature, or
// with side its last sideband signature.
func corruptLast(t *testing.T, scheme sigagg.Scheme, srs []core.SignedRecord, side bool) {
	t.Helper()
	sr := &srs[len(srs)-1]
	if !side {
		sr.Sig = corrupt(t, scheme, sr.Sig)
		return
	}
	sigs := append([]sigagg.Signature(nil), sr.AttrSigs...)
	sigs[len(sigs)-1] = corrupt(t, scheme, sigs[len(sigs)-1])
	sr.AttrSigs = sigs
}

func TestRestoreRefusedLeavesServer(t *testing.T) {
	for _, proj := range []bool{false, true} {
		t.Run(fmt.Sprintf("proj=%v", proj), func(t *testing.T) {
			rel := refusalServer(t, proj)
			v := viewOf(t, rel.QS)
			st := rel.QS.Snapshot()
			st.Records = append([]core.SignedRecord(nil), st.Records...)
			corruptLast(t, rel.Scheme, st.Records, proj)
			if err := rel.QS.Restore(st); err == nil {
				t.Fatal("Restore accepted an image with a corrupted signature")
			}
			v.check(t, rel.QS, "after the refused Restore")
		})
	}
}

func TestApplyRefusedLeavesServer(t *testing.T) {
	for _, proj := range []bool{false, true} {
		t.Run(fmt.Sprintf("proj=%v", proj), func(t *testing.T) {
			rel := refusalServer(t, proj)
			v := viewOf(t, rel.QS)
			msg, err := rel.DA.Delete(2500, 200)
			if err != nil {
				t.Fatal(err)
			}
			if len(msg.Deletes) != 1 || len(msg.Upserts) != 2 {
				t.Fatalf("the delete carries %d deletes and %d upserts, want 1 and 2", len(msg.Deletes), len(msg.Upserts))
			}
			corruptLast(t, rel.Scheme, msg.Upserts, proj)
			if err := rel.QS.Apply(msg); err == nil {
				t.Fatal("Apply accepted a message with a corrupted signature")
			}
			v.check(t, rel.QS, "after the refused Apply")
		})
	}
}
