package server

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"authdb/internal/client"
	"authdb/internal/wire"
)

// goroutineLevel polls until the goroutine count settles back to at
// most base+slack, failing the test if it never does — the leak check
// behind the shutdown tests.
func goroutineLevel(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d > %d+3\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShutdownDuringSlowLoris: Shutdown must not wait for a peer that
// is dripping a payload byte-by-byte — the drain completes within the
// context deadline and every handler goroutine exits.
func TestShutdownDuringSlowLoris(t *testing.T) {
	base := runtime.NumGoroutine()
	_, _, addr, srv, _ := newNetFixtureSrv(t, 100, NetConfig{ReadTimeout: 10 * time.Second})

	// Three lorises mid-payload: header announced, bytes withheld.
	var conns []net.Conn
	for i := 0; i < 3; i++ {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.Write([]byte{0, 0, 0, 17, wire.Version})
		conns = append(conns, c)
	}
	time.Sleep(20 * time.Millisecond) // let the handlers enter the payload read

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with lorises attached: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("shutdown waited %v for slow-loris peers", d)
	}
	for _, c := range conns {
		c.Close()
	}
	goroutineLevel(t, base)
}

// TestShutdownDuringShedBurst: Shutdown racing a burst of requests
// against a tiny admission gate must drain cleanly — queued waiters are
// woken and shed, nothing deadlocks, no goroutine leaks.
func TestShutdownDuringShedBurst(t *testing.T) {
	base := runtime.NumGoroutine()
	sys, keys, addr, srv, _ := newNetFixtureSrv(t, 200, NetConfig{MaxInflight: 1, MaxPending: 2})

	// Hold the only slot so the burst queues and sheds.
	if !srv.adm.acquire() {
		t.Fatal("slot grab refused")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := client.Dial(addr, client.Config{Scheme: sys.Scheme, Pub: sys.Pub, DialTimeout: 5 * time.Second})
			if err != nil {
				return // shutdown may beat the dial; fine
			}
			defer cl.Close()
			// Sheds, queues, or dies mid-shutdown — all acceptable; what is
			// not acceptable is hanging.
			cl.QueryPlan(leaf(keys[i%100], keys[i%100+20]))
		}()
	}
	time.Sleep(30 * time.Millisecond) // let the burst pile onto the gate

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown during shed burst: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("shutdown took %v against a queued burst", d)
	}
	srv.adm.release()
	wg.Wait()
	goroutineLevel(t, base)
}

// TestShutdownIdempotentAfterDrain: a second Shutdown (and a Serve on a
// drained server) return immediately with ErrServerClosed semantics.
func TestShutdownIdempotentAfterDrain(t *testing.T) {
	_, _, _, srv, _ := newNetFixtureSrv(t, 50, NetConfig{})
	ctx := context.Background()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("serve after shutdown: %v, want ErrServerClosed", err)
	}
}
