package replica_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"authdb/internal/chain"
	"authdb/internal/core"
	"authdb/internal/query"
	"authdb/internal/replica"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/crsa"
	"authdb/internal/sigagg/xortest"
	"authdb/internal/wire"
)

// fakePrimary answers the first subscription it accepts with raw, the
// bytes of a feed, and then closes the connection; later subscriptions
// are closed unanswered.
func fakePrimary(t *testing.T, raw []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if _, err := wire.ReadFrame(conn, nil, 0); err == nil {
				once.Do(func() { conn.Write(raw) })
			}
			conn.Close()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

// runFollower runs fl against addr until the returned stop is called.
func runFollower(fl *replica.Follower, addr string) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		fl.Run(ctx, addr)
	}()
	return func() {
		cancel()
		<-done
	}
}

// TestFollowerBootstrapsPastDefaultMaxFrame: a relation image is one feed
// frame, whatever its size — a follower takes one past the 64 MiB cap
// that bounds requests and answers.
func TestFollowerBootstrapsPastDefaultMaxFrame(t *testing.T) {
	fl := newRelFollower(t, core.DefaultRelation)
	stop := runFollower(fl, fakePrimary(t, bigImageFrame(t)))
	defer stop()
	select {
	case <-fl.Ready():
	case <-time.After(20 * time.Second):
		t.Fatalf("no image installed: %v", fl.LastErr())
	}
	if n := fl.QS().Len(); n != 3 || fl.Stats().AppliedLSN != 1 {
		t.Fatalf("follower holds %d records at lsn %d, want the image's 3 at lsn 1", n, fl.Stats().AppliedLSN)
	}
}

// bigImageFrame is a framed bootstrap of three records whose attributes
// together pass wire.DefaultMaxFrame.
func bigImageFrame(t *testing.T) []byte {
	scheme := xortest.New()
	attr := bytes.Repeat([]byte{'a'}, 22<<20)
	st := &core.ServerState{Binding: sigagg.BindingOf(scheme)}
	for i := range 3 {
		st.Records = append(st.Records, core.SignedRecord{
			Rec: &chain.Record{RID: uint64(i + 1), Key: int64(10 * (i + 1)), Attrs: [][]byte{attr}, TS: 1},
			Sig: make(sigagg.Signature, scheme.SignatureSize()),
		})
	}
	frame := wire.AppendBootstrap(nil, 1, st)
	if len(frame) <= wire.DefaultMaxFrame {
		t.Fatalf("the image is %d bytes, not past the cap: test setup broken", len(frame))
	}
	var raw bytes.Buffer
	if err := wire.WriteFrame(&raw, frame); err != nil {
		t.Fatal(err)
	}
	return raw.Bytes()
}

// TestFollowerLyingHeaderAllocatesLittle: a primary that announces a
// 4 GiB frame and then hangs up costs the follower about one read step,
// not the claim.
func TestFollowerLyingHeaderAllocatesLittle(t *testing.T) {
	addr := fakePrimary(t, []byte{0xFF, 0xFF, 0xFF, 0xFF, wire.Version, wire.KindReplBootstrap})
	fl := replica.NewFollower(replica.FollowerConfig{RetryBase: time.Minute}, schemes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stop := runFollower(fl, addr)
	waitUntil(t, "the session to fail", func() bool { return fl.LastErr() != nil })
	stop()
	runtime.ReadMemStats(&after)
	if !errors.Is(fl.LastErr(), wire.ErrCorrupt) {
		t.Fatalf("session ended with %v, want a truncated frame", fl.LastErr())
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("a 4 GiB claim with 2 bytes behind it allocated %d bytes", grew)
	}
	if fl.QS() != nil {
		t.Fatal("a server was built without an image")
	}
}

// TestFollowerRefusesAnotherBinding: a follower's server is bound to the
// modulus of its first image's signer. A restarted primary under another
// condensed-RSA key images it again, and the image is refused — the
// follower keeps serving the state it holds, which the first signer's
// key still verifies.
func TestFollowerRefusesAnotherBinding(t *testing.T) {
	old, shutdownOld := newPrimaryUnder(t, crsa.New(crsa.DefaultBits), rand.New(rand.NewSource(1)), 60, false)
	fl := newTestFollower(t, old)
	stop := runFollower(fl, old.addr)
	waitUntil(t, "catch-up", func() bool { return caughtUp(old, fl) })
	old.update(t, old.keys[0])
	old.update(t, old.keys[1]) // the follower is ahead of any fresh primary: it is imaged again
	waitUntil(t, "live tail", func() bool { return caughtUp(old, fl) })
	stop()
	shutdownOld()

	f, shutdown := newPrimaryUnder(t, crsa.New(crsa.DefaultBits), rand.New(rand.NewSource(2)), 60, false)
	defer shutdown()
	stop = runFollower(fl, f.addr)
	defer stop()
	waitUntil(t, "the image to be refused", func() bool {
		err := fl.LastErr()
		return err != nil && strings.Contains(err.Error(), "bound to")
	})
	if st := fl.Stats(); st.Bootstraps != 1 || fl.QS().Len() != old.sys.QS.Len() {
		t.Fatalf("follower %+v holds %d records: it must keep the first signer's relation", st, fl.QS().Len())
	}
	cl := dialFollower(t, old, fl)
	if _, err := cl.QueryPlan(&query.Spec{Rel: core.DefaultRelation, Lo: old.keys[0], Hi: old.keys[20]}); err != nil {
		t.Fatalf("verified query against the follower under its first binding: %v", err)
	}
}
