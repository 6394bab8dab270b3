package server

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"authdb/internal/client"
	"authdb/internal/wire"
)

// ---- admission gate unit tests ----

func TestAdmissionDisabled(t *testing.T) {
	var a *admission // MaxInflight <= 0
	if !a.acquire() {
		t.Fatal("nil gate refused")
	}
	a.release()
	a.close()
}

func TestAdmissionShedsPastQueue(t *testing.T) {
	a := newAdmission(1, 1)
	if !a.acquire() {
		t.Fatal("first acquire refused")
	}
	// Second request queues; drive it from a goroutine.
	got := make(chan bool, 1)
	go func() { got <- a.acquire() }()
	waitFor(t, func() bool { return a.queued.Load() == 1 })
	// Third finds slot busy and queue full: shed immediately.
	if a.acquire() {
		t.Fatal("over-capacity acquire admitted")
	}
	if a.shed.Load() != 1 {
		t.Fatalf("shed = %d, want 1", a.shed.Load())
	}
	a.release() // frees the slot; the queued waiter takes it
	if !<-got {
		t.Fatal("queued acquire was shed despite a freed slot")
	}
	a.release()
}

func TestAdmissionCloseWakesWaiters(t *testing.T) {
	a := newAdmission(1, 4)
	a.acquire()
	got := make(chan bool, 3)
	for i := 0; i < 3; i++ {
		go func() { got <- a.acquire() }()
	}
	waitFor(t, func() bool { return a.queued.Load() == 3 })
	a.close()
	for i := 0; i < 3; i++ {
		select {
		case admitted := <-got:
			if admitted {
				t.Fatal("waiter admitted after close")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("queued waiter hung through close")
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// ---- end-to-end hardening ----

// TestNetShedAndClientBackoff fills the admission gate, confirms
// requests are shed with the machine-readable overload code, then frees
// the gate and confirms a retrying client rides the backoff to success.
func TestNetShedAndClientBackoff(t *testing.T) {
	sys, keys, addr, srv, shutdown := newNetFixtureSrv(t, 200, NetConfig{MaxInflight: 1, MaxPending: 0})
	defer shutdown()

	// Occupy the only execution slot from outside.
	if !srv.adm.acquire() {
		t.Fatal("slot grab refused")
	}

	// Without retries the shed surfaces as ErrOverloaded.
	plain := dialTest(t, sys, addr)
	if _, err := plain.QueryPlan(leaf(keys[0], keys[10])); !errors.Is(err, client.ErrOverloaded) {
		t.Fatalf("shed fetch: err=%v, want ErrOverloaded", err)
	} else if !errors.Is(err, client.ErrServer) {
		t.Fatal("ErrOverloaded must read as a server error")
	}
	if st := plain.Stats(); st.Shed != 1 {
		t.Fatalf("client shed count = %d, want 1", st.Shed)
	}

	// A retrying client blocks on backoff until the slot frees.
	cl, err := client.Dial(addr, client.Config{
		Scheme: sys.Scheme, Pub: sys.Pub,
		DialTimeout: 5 * time.Second,
		Retry:       client.RetryPolicy{MaxAttempts: 50, BaseDelay: 2 * time.Millisecond, MaxDelay: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	go func() {
		time.Sleep(30 * time.Millisecond)
		srv.adm.release()
	}()
	ans, err := cl.QueryPlan(leaf(keys[0], keys[10]))
	if err != nil {
		t.Fatalf("query never admitted after slot freed: %v", err)
	}
	if len(ans.Outer.Records) != 11 {
		t.Fatalf("%d records, want 11", len(ans.Outer.Records))
	}
	st := cl.Stats()
	if st.Shed == 0 || st.Retries == 0 {
		t.Fatalf("retrying client never saw the shed: %+v", st)
	}
	if ss := srv.Stats(); ss.Shed == 0 {
		t.Fatalf("server shed count = %d, want > 0", ss.Shed)
	}
}

// TestNetIdleTimeoutReapsAndFreesSlot: an idle-parked connection is
// reaped and its MaxConns slot handed to a live client — the
// slot-starvation defense, exercised end to end.
func TestNetIdleTimeoutReapsAndFreesSlot(t *testing.T) {
	sys, keys, addr, shutdown := newNetFixture(t, 100, NetConfig{
		MaxConns:    1,
		IdleTimeout: 50 * time.Millisecond,
	})
	defer shutdown()

	// Park a raw conn in the only slot, sending nothing.
	parked, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer parked.Close()
	// The server reaps it: the read side sees EOF/reset.
	parked.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := parked.Read(make([]byte, 1)); err == nil {
		t.Fatal("idle connection was not reaped")
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("idle connection still open after 5s")
	}

	// The freed slot admits a real client.
	done := make(chan error, 1)
	go func() {
		cl, err := client.Dial(addr, client.Config{Scheme: sys.Scheme, Pub: sys.Pub, DialTimeout: 5 * time.Second})
		if err != nil {
			done <- err
			return
		}
		defer cl.Close()
		_, err = cl.QueryPlan(leaf(keys[0], keys[20]))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("query after reap: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reaped connection did not free its MaxConns slot")
	}
}

// TestNetSlowLorisCutOff: a peer that announces a payload and drips it
// slower than ReadTimeout is disconnected; a well-behaved client on the
// same server is unaffected.
func TestNetSlowLorisCutOff(t *testing.T) {
	sys, keys, addr, shutdown := newNetFixture(t, 100, NetConfig{
		ReadTimeout: 50 * time.Millisecond,
	})
	defer shutdown()

	loris, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer loris.Close()
	// Announce a 17-byte query frame, deliver 2 bytes, stall.
	loris.Write([]byte{0, 0, 0, 17, wire.Version, wire.KindPlan})
	loris.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(loris); err != nil && !isConnReset(err) {
		t.Fatalf("read after stall: %v", err)
	}
	// The handler must have hung up, not waited forever (ReadAll saw
	// EOF or a reset above — both mean the server cut the peer off).

	cl := dialTest(t, sys, addr)
	if _, err := cl.QueryPlan(leaf(keys[0], keys[20])); err != nil {
		t.Fatalf("well-behaved client suffered for the loris: %v", err)
	}
}

// TestNetMalformedFrameClosesOnlyThatConn: garbage framing earns an
// ErrCodeBadFrame response and a hangup on the offending connection;
// other sessions continue untouched.
func TestNetMalformedFrameClosesOnlyThatConn(t *testing.T) {
	sys, keys, addr, srv, shutdown := newNetFixtureSrv(t, 100, NetConfig{MaxFrame: 1 << 20})
	defer shutdown()

	cl := dialTest(t, sys, addr) // healthy bystander
	if _, err := cl.QueryPlan(leaf(keys[0], keys[10])); err != nil {
		t.Fatal(err)
	}

	evil, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer evil.Close()
	// A frame header claiming 256MB — over the configured cap.
	evil.Write([]byte{0xff, 0xff, 0xff, 0xff})
	evil.SetReadDeadline(time.Now().Add(5 * time.Second))
	data, _ := io.ReadAll(evil) // server responds then closes
	if len(data) > 0 {
		payload, err := wire.ReadFrame(bytes.NewReader(data), nil, 0)
		if err != nil {
			t.Fatalf("bad-frame response unreadable: %v", err)
		}
		code, _, err := wire.DecodeErrorCode(payload)
		if err != nil || code != wire.ErrCodeBadFrame {
			t.Fatalf("response code = %d (err %v), want ErrCodeBadFrame", code, err)
		}
	}
	waitFor(t, func() bool { return srv.Stats().Malformed >= 1 })

	// The bystander is still fine.
	if _, err := cl.QueryPlan(leaf(keys[0], keys[10])); err != nil {
		t.Fatalf("bystander broken by another conn's garbage: %v", err)
	}
}

func isConnReset(err error) bool {
	var ne *net.OpError
	return errors.As(err, &ne)
}
