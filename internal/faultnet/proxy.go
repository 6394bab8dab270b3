package faultnet

import (
	"io"
	"net"
	"sync"
	"time"
)

// Proxy is a TCP relay that pipes every accepted connection to an
// upstream address through a fault-injecting Conn, so an unmodified
// client and server can be soaked under hostile network conditions:
// the client dials the proxy, the proxy dials the real server, and the
// profile's faults land on the client-facing stream (both directions).
//
// The upstream address is swappable at runtime (SetUpstream), which is
// how the chaos harness re-points surviving clients at a restarted
// server incarnation without re-dialing them out of band — exactly the
// failover a retrying client must handle.
type Proxy struct {
	ln       net.Listener
	seed     int64
	dialWait time.Duration

	mu       sync.Mutex
	prof     Profile
	upstream string
	conns    map[net.Conn]struct{}
	closed   bool
	n        int64

	wg sync.WaitGroup
}

// NewProxy listens on a fresh loopback port and relays to upstream
// under prof's fault regime.
func NewProxy(upstream string, prof Profile, seed int64) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{
		ln:       ln,
		prof:     prof,
		seed:     seed,
		dialWait: 2 * time.Second,
		upstream: upstream,
		conns:    make(map[net.Conn]struct{}),
	}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the proxy's dialable listen address.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetUpstream re-points new relay connections at addr (existing pipes
// keep their server). Used when the server restarts on a new port.
func (p *Proxy) SetUpstream(addr string) {
	p.mu.Lock()
	p.upstream = addr
	p.mu.Unlock()
}

// SetProfile swaps the fault regime for connections accepted from now
// on (existing pipes keep the profile they were born under). The chaos
// harness uses this to sweep regimes over one long-lived proxy.
func (p *Proxy) SetProfile(prof Profile) {
	p.mu.Lock()
	p.prof = prof
	p.mu.Unlock()
}

// DropAll severs every active pipe without closing the listener — a
// network partition for the connections that exist right now.
func (p *Proxy) DropAll() {
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
}

// Close stops accepting, severs active pipes, and waits for the relay
// goroutines to exit.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	err := p.ln.Close()
	p.DropAll()
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		down, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			down.Close()
			return
		}
		i := p.n
		p.n++
		up := p.upstream
		// Registered under the lock that read the upstream: a DropAll
		// that follows a SetUpstream then cannot miss a pipe still being
		// set up towards the old server.
		faulty := Wrap(down, p.prof, connSeed(p.seed, i))
		p.conns[faulty] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(1)
		go p.relay(faulty, up)
	}
}

// track registers c for Close/DropAll teardown.
func (p *Proxy) track(c net.Conn) {
	p.mu.Lock()
	p.conns[c] = struct{}{}
	p.mu.Unlock()
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
}

// relay pumps one downstream connection (already registered, and
// wrapped so faults are injected on the downstream side and both
// requests and responses cross the hostile stream) to the upstream and
// back.
func (p *Proxy) relay(faulty net.Conn, upstream string) {
	defer p.wg.Done()
	defer faulty.Close()
	defer p.untrack(faulty)

	up, err := net.DialTimeout("tcp", upstream, p.dialWait)
	if err != nil {
		return // downstream sees a reset: the "server unreachable" fault
	}
	defer up.Close()
	p.track(up)
	defer p.untrack(up)

	var pumps sync.WaitGroup
	pumps.Add(2)
	pump := func(dst io.Writer, src io.Reader) {
		defer pumps.Done()
		buf := make([]byte, 16<<10)
		io.CopyBuffer(dst, src, buf)
		// Either direction dying kills the pipe: half-open relays would
		// stall a pipelining peer forever instead of failing fast.
		faulty.Close()
		up.Close()
	}
	go pump(up, faulty)
	go pump(faulty, up)
	pumps.Wait()
}
