package faultnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// pipeConns returns a connected TCP pair (real sockets, so deadlines
// and half-close behave like production).
func pipeConns(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	a, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { a.Close(); r.c.Close() })
	return a, r.c
}

// TestTransparentWhenZero: the zero profile moves bytes unmodified.
func TestTransparentWhenZero(t *testing.T) {
	a, b := pipeConns(t)
	fa := Wrap(a, Profile{}, 1)
	msg := bytes.Repeat([]byte("transparent"), 100)
	go func() {
		fa.Write(msg)
		fa.Close()
	}()
	got, err := io.ReadAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("zero profile altered the stream (%d vs %d bytes)", len(got), len(msg))
	}
}

// TestChunkedReads: ChunkMax fragments reads so frames tear across
// operations.
func TestChunkedReads(t *testing.T) {
	a, b := pipeConns(t)
	fb := Wrap(b, Profile{ChunkMax: 7}, 1)
	msg := bytes.Repeat([]byte("x"), 100)
	go func() {
		a.Write(msg)
		a.Close()
	}()
	buf := make([]byte, 64)
	n, err := fb.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n > 7 {
		t.Fatalf("chunked read returned %d bytes, cap is 7", n)
	}
	rest, err := io.ReadAll(fb)
	if err != nil {
		t.Fatal(err)
	}
	if n+len(rest) != len(msg) {
		t.Fatalf("stream lost bytes: %d + %d != %d", n, len(rest), len(msg))
	}
}

// TestResetAfterTearsMidStream: the byte-count reset fires once the
// threshold crosses, killing both directions.
func TestResetAfterTearsMidStream(t *testing.T) {
	a, b := pipeConns(t)
	fa := Wrap(a, Profile{ResetAfter: 50, ChunkMax: 16}, 42)
	var werr error
	var wrote int
	donew := make(chan struct{})
	go func() {
		defer close(donew)
		wrote, werr = fa.Write(bytes.Repeat([]byte("y"), 500))
	}()
	got, _ := io.ReadAll(b)
	<-donew
	if werr == nil || !errors.Is(werr, ErrInjected) {
		t.Fatalf("write survived a ResetAfter=50 profile: n=%d err=%v", wrote, werr)
	}
	if len(got) >= 500 {
		t.Fatalf("peer received the whole message (%d bytes) despite the reset", len(got))
	}
	// The conn is dead for every later operation, read side included.
	if _, err := fa.Read(make([]byte, 8)); !errors.Is(err, ErrInjected) {
		t.Fatalf("read after reset: %v, want ErrInjected", err)
	}
}

// TestCorruptionIsDetectableAndDeterministic: a corrupting profile
// flips bits (caller's buffer untouched on writes), and the same seed
// replays the same flips.
func TestCorruptionIsDetectableAndDeterministic(t *testing.T) {
	run := func(seed int64) []byte {
		a, b := pipeConns(t)
		fa := Wrap(a, Profile{CorruptProb: 0.5, ChunkMax: 8}, seed)
		msg := bytes.Repeat([]byte("abcdefgh"), 32)
		orig := append([]byte(nil), msg...)
		go func() {
			fa.Write(msg)
			fa.Close()
		}()
		got, err := io.ReadAll(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(msg, orig) {
			t.Fatal("Write mutated the caller's buffer")
		}
		if len(got) != len(msg) {
			t.Fatalf("corruption changed length: %d vs %d", len(got), len(msg))
		}
		return got
	}
	g1, g2 := run(7), run(7)
	if !bytes.Equal(g1, g2) {
		t.Fatal("same seed produced different corruption")
	}
	clean := bytes.Repeat([]byte("abcdefgh"), 32)
	if bytes.Equal(g1, clean) {
		t.Fatal("CorruptProb=0.5 over 32 chunks corrupted nothing")
	}
}

// TestBandwidthCapPaces: a 10KB/s cap makes 5KB take roughly half a
// second instead of microseconds.
func TestBandwidthCapPaces(t *testing.T) {
	a, b := pipeConns(t)
	fa := Wrap(a, Profile{BytesPerSec: 10 << 10, ChunkMax: 512}, 1)
	go io.Copy(io.Discard, b)
	start := time.Now()
	if _, err := fa.Write(make([]byte, 5<<10)); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 200*time.Millisecond {
		t.Fatalf("5KB at 10KB/s finished in %v; pacing is not applied", el)
	}
}

// echoServer echoes every read back with suffix appended, until stop.
func echoServer(t *testing.T, suffix byte) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 256)
				for {
					n, err := c.Read(buf)
					if n > 0 {
						c.Write(append(buf[:n:n], suffix))
					}
					if err != nil {
						return
					}
				}
			}(c)
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}

// TestProxyRelaysAndRetargets: a transparent proxy round-trips bytes
// to an echo server, and SetUpstream points new connections at a
// different server.
func TestProxyRelaysAndRetargets(t *testing.T) {
	addr1, stop1 := echoServer(t, '1')
	defer stop1()
	addr2, stop2 := echoServer(t, '2')
	defer stop2()

	p, err := NewProxy(addr1, Profile{}, 99)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	roundTrip := func(want string) {
		t.Helper()
		c, err := net.Dial("tcp", p.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 16)
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := io.ReadAtLeast(c, buf, 5)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(buf[:n]); got != want {
			t.Fatalf("echoed %q, want %q", got, want)
		}
	}
	roundTrip("ping1")
	p.SetUpstream(addr2)
	roundTrip("ping2")
}

// TestProxyDropAllSevers: DropAll kills live pipes; the listener keeps
// accepting replacements.
func TestProxyDropAllSevers(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { // sink server: accepts and holds
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, c)
		}
	}()
	p, err := NewProxy(ln.Addr().String(), Profile{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hold")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the relay spin up
	p.DropAll()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("pipe survived DropAll")
	}
	// New connections still relay.
	c2, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Write([]byte("again")); err != nil {
		t.Fatal(err)
	}
}

// TestProxyPartitionRightAfterDial: a partition (SetUpstream to nowhere,
// then DropAll) issued the moment a dial returns must still cut that
// connection — its relay may not have reached the old server yet, and a
// pipe that DropAll missed would keep talking to it.
func TestProxyPartitionRightAfterDial(t *testing.T) {
	addr, stop := echoServer(t, '!')
	defer stop()
	for i := 0; i < 200; i++ {
		p, err := NewProxy(addr, Profile{}, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		c, err := net.Dial("tcp", p.Addr())
		if err != nil {
			t.Fatal(err)
		}
		p.SetUpstream("127.0.0.1:1")
		p.DropAll()
		c.Write([]byte("ping")) // may already fail; the read decides
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if n, err := c.Read(make([]byte, 8)); err == nil {
			t.Fatalf("round %d: partitioned connection still echoed %d bytes", i, n)
		}
		c.Close()
		p.Close()
	}
}
