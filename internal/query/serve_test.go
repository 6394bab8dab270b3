package query

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"authdb/internal/anscache"
	"authdb/internal/core"
	"authdb/internal/join"
	"authdb/internal/wire"
)

// TestServePlanRefusesStraySince: a request's summary positions are held
// against the relations its plan names — a position for another relation,
// or two for one, is refused rather than silently resolved.
func TestServePlanRefusesStraySince(t *testing.T) {
	fx := newFixture(t)
	scan := (&Spec{Rel: "o", Lo: 105, Hi: 305}).mustPlan(t).Marshal()
	joined := fx.spec(join.BF).mustPlan(t).Marshal()
	for _, tc := range []struct {
		name  string
		plan  []byte
		since []wire.RelSince
		want  string // "" = served
	}{
		{"scan, its own relation", scan, []wire.RelSince{{Name: "o", SinceSeq: 1}}, ""},
		{"scan, the other relation", scan, []wire.RelSince{{Name: "i"}}, "does not name"},
		{"scan, an unknown relation", scan, []wire.RelSince{{Name: "nope"}}, "does not name"},
		{"scan, the same relation twice", scan, []wire.RelSince{{Name: "o", SinceSeq: 1}, {Name: "o"}}, "two summary positions"},
		{"join, both relations", joined, []wire.RelSince{{Name: "o"}, {Name: "i", SinceSeq: 1}}, ""},
		{"join, inner twice", joined, []wire.RelSince{{Name: "i"}, {Name: "i", SinceSeq: 1}}, "two summary positions"},
		{"join, a third relation", joined, []wire.RelSince{{Name: "o"}, {Name: "x"}}, "does not name"},
	} {
		_, _, release, err := fx.eng.ServePlan(tc.plan, tc.since)
		if err == nil {
			release()
		}
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want one saying %q", tc.name, err, tc.want)
		}
	}
}

// TestBareScanServedByItsRelation: a plan that is a bare selection is
// answered by the scanned relation's own serving layer — from its answer
// cache when it has one, zero-copy, and never from the engine's plan
// cache — and the frame is the leaf composite either way.
func TestBareScanServedByItsRelation(t *testing.T) {
	fx := newFixture(t)
	plan := (&Spec{Rel: "o", Lo: 105, Hi: 305}).mustPlan(t).Marshal()
	serve := func() (*wire.Composite, []byte) {
		t.Helper()
		body, tails, release, err := fx.eng.ServePlan(plan, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		return decodeServed(t, body, tails), bytes.Clone(body)
	}
	uncached, plain := serve()
	if uncached.Proj != nil || uncached.Join != nil || len(uncached.Outer.Records) != 20 {
		t.Fatalf("bare scan answered with %+v", uncached)
	}
	if len(uncached.Tails) != 1 || uncached.Tails[0].Rel != "o" || len(uncached.Tails[0].Summaries) == 0 {
		t.Fatalf("bare scan's tails: %+v", uncached.Tails)
	}
	// The relation's cache holds what wire.AppendAnswerCore writes — the
	// codec internal/server pairs it with.
	codec := core.AnswerCodec{Encode: func(a *core.Answer) ([]byte, error) { return wire.AppendAnswerCore(nil, a) }}
	if err := fx.outer.QS.EnableAnswerCache(codec, anscache.WithMaxBytes(1<<20)); err != nil {
		t.Fatal(err)
	}
	defer fx.outer.QS.DisableAnswerCache()
	// The first serve is a first sighting (served, not kept), the second
	// earns residency, the rest are hits.
	for i := 0; i < 4; i++ {
		got, body := serve()
		if !bytes.Equal(body, plain) || !reflect.DeepEqual(got, uncached) {
			t.Fatalf("serve %d through the relation's cache differs from the uncached answer", i)
		}
	}
	if !raceEnabled {
		// A cached range selection is most of a server's traffic: beyond the
		// relation's own serving layer it costs the request no object.
		since := []wire.RelSince{{Name: "o", SinceSeq: 1 << 40}} // past the stream: an empty tail
		viaQS := testing.AllocsPerRun(50, func() {
			sv, err := fx.outer.QS.Serve(105, 305)
			if err != nil {
				t.Fatal(err)
			}
			sv.Release()
		})
		viaEngine := testing.AllocsPerRun(50, func() {
			sv, err := fx.eng.Serve(plan, since)
			if err != nil {
				t.Fatal(err)
			}
			sv.Release()
		})
		// (The one object is the slice header wire.PutBuffer boxes when the
		// tails' buffer goes back to its pool.)
		if viaEngine > viaQS+1 {
			t.Fatalf("cached bare scan: %.0f allocations through the engine, %.0f in QueryServer.Serve", viaEngine, viaQS)
		}
	}
	if st := fx.outer.QS.ServingStats().Answers; st.Built != 2 || st.Hits < 2 {
		t.Fatalf("relation cache built %d, hit %d; want 2 and 2", st.Built, st.Hits)
	}
	if st := fx.eng.Stats(); st.Cache.Built != 0 || st.Cache.Hits != 0 || st.Cache.Entries != 0 {
		t.Fatalf("a bare scan reached the plan cache: %+v", st.Cache)
	}
	// One operator on top and it is the engine's.
	proj := (&Spec{Rel: "o", Lo: 105, Hi: 305, Attrs: []int{0}}).mustPlan(t).Marshal()
	_, _, release, err := fx.eng.ServePlan(proj, nil)
	if err != nil {
		t.Fatal(err)
	}
	release()
	if st := fx.eng.Stats(); st.Cache.Built != 1 {
		t.Fatalf("a projection did not build a plan-cache entry: %+v", st.Cache)
	}
}

// FuzzUnmarshalPlan: the plan decoder is the first thing every request
// reaches. Whatever the bytes, it must not panic; what it accepts is
// canonical — the plan marshals back to exactly the input, which is what
// lets the plan cache key on received bytes — and passes Plan's rules.
// bareScan, the serving shortcut, reads exactly the plans the decoder
// reads as a bare selection, and reads them the same.
func FuzzUnmarshalPlan(f *testing.F) {
	for _, spec := range planShapes() {
		data := spec.Marshal()
		f.Add(data)
		for i := 0; i < len(data); i += 1 + len(data)/12 {
			m := bytes.Clone(data)
			m[i] ^= 0x81
			f.Add(m)
		}
		f.Add(data[:len(data)/2])
		f.Add(data[:len(data)-1])
		f.Add(append(bytes.Clone(data), 0))
		// The same bytes read under every other combination of flags.
		at := 2 + len(spec.Rel) + 16
		for flags := byte(0); flags <= flagProject|flagJoin; flags++ {
			if flags != data[at] {
				m := bytes.Clone(data)
				m[at] = flags
				f.Add(m)
			}
		}
	}
	sel := (&Spec{Rel: "o"}).Marshal()
	sel = sel[:len(sel)-1]                                      // the selection, without its flags
	f.Add(append(bytes.Clone(sel), flagProject, 0xff, 0xff))    // slot count past the limit
	f.Add(append(bytes.Clone(sel), flagJoin, 0, 0xff, 0xff, 0)) // inner name longer than the bytes present
	f.Fuzz(func(t *testing.T, data []byte) {
		rel, lo, hi, bare := bareScan(data)
		p, err := UnmarshalPlan(data)
		if bare != (err == nil && p.Attrs == nil && p.Join == nil) || bare && (string(rel) != p.Rel || lo != p.Lo || hi != p.Hi) {
			t.Fatalf("bareScan(%x) = %q [%d,%d] %v; UnmarshalPlan: %+v, %v", data, rel, lo, hi, bare, p, err)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(p.Marshal(), data) {
			t.Fatalf("accepted %x, which marshals back to %x", data, p.Marshal())
		}
		if _, err := Plan(p, true); err != nil {
			t.Fatalf("accepted %x, which Plan refuses: %v", data, err)
		}
	})
}
