package client_test

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"authdb/internal/client"
	"authdb/internal/core"
	"authdb/internal/query"
	"authdb/internal/server"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/xortest"
	"authdb/internal/wire"
	"authdb/internal/workload"
)

// newRelation is a one-relation catalog over scheme.
func newRelation(t testing.TB, scheme sigagg.Scheme, qsOpts ...core.Option) *core.Relation {
	t.Helper()
	cat, err := core.NewCatalog(scheme, core.DefaultConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rel, err := cat.AddRelation(core.DefaultRelation, nil, nil, qsOpts)
	if err != nil {
		t.Fatal(err)
	}
	return rel
}

// leaf is the plan a range selection is.
func leaf(lo, hi int64) *query.Spec {
	return &query.Spec{Rel: core.DefaultRelation, Lo: lo, Hi: hi}
}

// span is a range selection's bounds.
type span struct{ Lo, Hi int64 }

// fixture boots a loaded relation behind a loopback NetServer.
func fixture(t *testing.T, n int) (*core.Relation, []int64, string) {
	t.Helper()
	sys := newRelation(t, xortest.New())
	recs := workload.Records(workload.Config{N: n, RecLen: 64, Seed: 3})
	keys := workload.Keys(recs)
	msg, err := sys.DA.Load(recs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.QS.Apply(msg); err != nil {
		t.Fatal(err)
	}
	srv := server.NewNetServer(sys.QS, server.NetConfig{})
	ln, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return sys, keys, ln.Addr().String()
}

func TestDialValidation(t *testing.T) {
	if _, err := client.Dial("127.0.0.1:1", client.Config{}); err == nil {
		t.Fatal("Dial accepted a config without scheme/key")
	}
}

func TestPipelinedOrdering(t *testing.T) {
	sys, keys, addr := fixture(t, 400)
	cl, err := client.Dial(addr, client.Config{Scheme: sys.Scheme, Pub: sys.Pub})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	specs := make([]*query.Spec, 16)
	for i := range specs {
		specs[i] = leaf(keys[i*20], keys[i*20+10])
	}
	answers, err := cl.QueryPlans(specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, ans := range answers {
		if ans.Outer.Lo != specs[i].Lo || ans.Outer.Hi != specs[i].Hi {
			t.Fatalf("response %d is for [%d,%d], requested [%d,%d]",
				i, ans.Outer.Lo, ans.Outer.Hi, specs[i].Lo, specs[i].Hi)
		}
		if len(ans.Outer.Records) != 11 {
			t.Fatalf("response %d: %d records, want 11", i, len(ans.Outer.Records))
		}
	}
}

// TestTamperedAnswerRejected: what the verifying client exists for —
// bytes from the untrusted server are not believed.
func TestTamperedAnswerRejected(t *testing.T) {
	sys, keys, addr := fixture(t, 200)
	cl, err := client.Dial(addr, client.Config{Scheme: sys.Scheme, Pub: sys.Pub})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	spec := leaf(keys[5], keys[40])
	comp, err := cl.FetchPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Value forgery.
	evil := *comp.Outer.Records[3]
	evil.Attrs = [][]byte{[]byte("forged")}
	comp.Outer.Records[3] = &evil
	if err := cl.VerifyComposite(spec, comp); err == nil {
		t.Fatal("tampered answer verified")
	}
	// Record drop (completeness attack).
	comp, err = cl.FetchPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	ca := comp.Outer
	ca.Records = append(ca.Records[:7:7], ca.Records[8:]...)
	if err := cl.VerifyComposite(spec, comp); err == nil {
		t.Fatal("incomplete answer verified")
	}
}

// TestCorruptedConflictingSummaryIsNotDivergence: a re-delivered
// summary that conflicts with the held copy is accused of rollback only
// when it is validly signed. Garbled bytes that happen to decode are
// transport corruption — retryable — or a hostile network could forge
// "divergence" with a bit flip and kill honest sessions. (The
// validly-signed conflict case is covered by the server restart
// rollback test, which really does rewind durable state.)
func TestCorruptedConflictingSummaryIsNotDivergence(t *testing.T) {
	sys, keys, addr := fixture(t, 200)
	// Publish one certified summary so answers have something to attach.
	msg, err := sys.DA.ClosePeriod(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.QS.Apply(msg); err != nil {
		t.Fatal(err)
	}
	cl, err := client.Dial(addr, client.Config{Scheme: sys.Scheme, Pub: sys.Pub})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// First round ingests the certified summary stream.
	spec := leaf(keys[5], keys[40])
	if _, err := cl.QueryPlan(spec); err != nil {
		t.Fatal(err)
	}
	// The next answer re-delivers the held summary; corrupt that copy.
	comp, err := cl.FetchPlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.Tails) != 1 || len(comp.Tails[0].Summaries) == 0 || len(comp.Tails[0].Summaries[0].Compressed) == 0 {
		t.Fatal("fixture answer carries no re-delivered summary to corrupt")
	}
	comp.Tails[0].Summaries[0].Compressed[0] ^= 0x40
	err = cl.VerifyComposite(spec, comp)
	if !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("corrupted conflicting summary: %v, want wire.ErrCorrupt", err)
	}
	if errors.Is(err, client.ErrDiverged) {
		t.Fatal("transport corruption misdiagnosed as stream divergence")
	}
}

// TestHostileServer: a peer that speaks garbage is rejected at the wire
// layer, before any cryptographic check.
func TestHostileServer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 64)
		conn.Read(buf)
		// A syntactically valid frame whose payload is not a protocol
		// message.
		wire.WriteFrame(conn, []byte{wire.Version, 'X', 1, 2, 3})
	}()
	sys := newRelation(t, xortest.New())
	cl, err := client.Dial(ln.Addr().String(), client.Config{Scheme: sys.Scheme, Pub: sys.Pub})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.FetchPlan(leaf(1, 2)); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("garbage frame: %v, want ErrCorrupt", err)
	}
}
