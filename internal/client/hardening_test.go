package client_test

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"authdb/internal/client"
	"authdb/internal/faultnet"
	"authdb/internal/sigagg/xortest"
)

// TestConcurrentClientSerialized is the S-mutex regression: one Client,
// many goroutines, every answer still verified and matched to its own
// range. Run under -race this also proves the internal serialization.
func TestConcurrentClientSerialized(t *testing.T) {
	sys, keys, addr := fixture(t, 400)
	cl, err := client.Dial(addr, client.Config{Scheme: sys.Scheme, Pub: sys.Pub})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const workers, rounds = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				lo := keys[(w*17+r*3)%300]
				hi := keys[(w*17+r*3)%300+50]
				ans, err := cl.QueryPlan(leaf(lo, hi))
				if err != nil {
					errs <- err
					return
				}
				if ans.Outer.Lo != lo || ans.Outer.Hi != hi {
					errs <- errors.New("answer matched to the wrong caller's range")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := cl.Stats(); st.Verified != workers*rounds {
		t.Fatalf("verified %d answers, want %d", st.Verified, workers*rounds)
	}
}

// TestRetryThroughConnectionResets drives queries through a proxy that
// tears every connection after a few kilobytes. The retry machinery
// must reconnect (re-anchoring the summary stream each time) and finish
// every query with full verification.
func TestRetryThroughConnectionResets(t *testing.T) {
	sys, keys, addr := fixture(t, 400)
	proxy, err := faultnet.NewProxy(addr, faultnet.Profile{Name: "reset", ResetAfter: 24 << 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	cl, err := client.Dial(proxy.Addr(), client.Config{
		Scheme: sys.Scheme, Pub: sys.Pub,
		DialTimeout:    5 * time.Second,
		RequestTimeout: 5 * time.Second,
		Retry:          client.RetryPolicy{MaxAttempts: 10, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetSleep(func(time.Duration) {})

	if _, err := cl.SyncSummaries(0); err != nil {
		t.Fatal(err)
	}
	const queries = 40
	for i := 0; i < queries; i++ {
		lo := keys[(i*7)%300]
		ans, err := cl.QueryPlan(leaf(lo, keys[(i*7)%300+60]))
		if err != nil {
			t.Fatalf("query %d through resetting proxy: %v", i, err)
		}
		if len(ans.Outer.Records) != 61 {
			t.Fatalf("query %d: %d records, want 61", i, len(ans.Outer.Records))
		}
	}
	st := cl.Stats()
	if st.Reconnects == 0 || st.Retries == 0 {
		t.Fatalf("proxy tore no connections the client noticed: %+v", st)
	}
	if st.Verified != queries {
		t.Fatalf("verified %d answers, want %d", st.Verified, queries)
	}
}

// TestRetryGivesUpWhenServerGone: with the upstream partitioned, the
// policy's attempts are exhausted and the last transport error
// surfaces — no hang, no silent success.
func TestRetryGivesUpWhenServerGone(t *testing.T) {
	sys, _, addr := fixture(t, 50)
	proxy, err := faultnet.NewProxy(addr, faultnet.Profile{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	cl, err := client.Dial(proxy.Addr(), client.Config{
		Scheme: sys.Scheme, Pub: sys.Pub,
		DialTimeout: time.Second,
		Retry:       client.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetSleep(func(time.Duration) {})
	// Partition: sever live pipes and point new ones at a port that
	// stays bound for the test's life (so no other package's listener can
	// land on it) and hangs up on every connection.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dead.Close()
	go func() {
		for {
			c, err := dead.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	proxy.SetUpstream(dead.Addr().String())
	proxy.DropAll()
	if _, err := cl.QueryPlan(leaf(1, 2)); err == nil {
		t.Fatal("fetch through a dead proxy succeeded")
	}
	if st := cl.Stats(); st.Retries != 2 {
		t.Fatalf("retries = %d, want 2 (MaxAttempts=3)", st.Retries)
	}
}

// TestRequestTimeout: a server that accepts and never answers must not
// hang the client past its per-request deadline.
func TestRequestTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // hold it open, answer nothing
		}
	}()
	sys := newRelation(t, xortest.New())
	cl, err := client.Dial(ln.Addr().String(), client.Config{
		Scheme: sys.Scheme, Pub: sys.Pub,
		RequestTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	_, ferr := cl.QueryPlan(leaf(1, 2))
	if ferr == nil {
		t.Fatal("fetch against a mute server succeeded")
	}
	var ne net.Error
	if !errors.As(ferr, &ne) || !ne.Timeout() {
		t.Fatalf("err = %v, want a net timeout", ferr)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline did not bound the wait: %v", elapsed)
	}
}
