package client

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"unsafe"
)

// scriptConn is a net.Conn whose read side plays stream back, no Read
// crossing any offset in cuts, and records where every Read's bytes went.
type scriptConn struct {
	net.Conn // nil: only Read is ever called
	stream   []byte
	cuts     []int
	reads    []readSpan
}

type readSpan struct {
	at uintptr // address of the destination's first byte
	n  int
}

func (c *scriptConn) Read(p []byte) (int, error) {
	if len(c.stream) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), len(c.stream))
	for len(c.cuts) > 0 && c.cuts[0] <= 0 {
		c.cuts = c.cuts[1:]
	}
	if len(c.cuts) > 0 {
		n = min(n, c.cuts[0])
	}
	copy(p, c.stream[:n])
	c.stream = c.stream[n:]
	for i := range c.cuts {
		c.cuts[i] -= n
	}
	if n > 0 {
		c.reads = append(c.reads, readSpan{uintptr(unsafe.Pointer(&p[0])), n})
	}
	return n, nil
}

func frame(payload []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

func patterned(n int, salt byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) ^ salt
	}
	return b
}

// TestReadFrameCopiesPayloadOnce: the bytes of a large frame go from the
// connection into the frame readFrame returns — all but the part that
// arrived with its header, at most headBuf — and the connection is not
// read further ahead than that either; and frames pipelined behind one
// another come out whole wherever the stream happens to be cut.
func TestReadFrameCopiesPayloadOnce(t *testing.T) {
	big := patterned(53<<10, 1)
	next := patterned(2000, 2)
	conn := &scriptConn{stream: append(frame(big), frame(next)...)}
	c := &Client{conn: conn}
	c.resetBuffers()
	data, err := c.readFrame()
	if err != nil || !bytes.Equal(data, big) {
		t.Fatalf("readFrame: %d bytes, err %v", len(data), err)
	}
	lo := uintptr(unsafe.Pointer(&data[0]))
	handed, outside := 0, 0
	for _, r := range conn.reads {
		handed += r.n
		if r.at < lo || r.at >= lo+uintptr(len(data)) {
			outside += r.n
		}
	}
	if handed > 4+len(big)+headBuf {
		t.Errorf("the connection handed out %d bytes for a %d-byte frame", handed, len(big))
	}
	if outside > headBuf {
		t.Errorf("%d bytes of a %d-byte frame were read into a buffer and copied again, want at most %d", outside, len(big), headBuf)
	}
	if got := c.stats.BytesIn; got != uint64(len(big))+4 {
		t.Errorf("BytesIn = %d, want %d", got, len(big)+4)
	}
	if data, err = c.readFrame(); err != nil || !bytes.Equal(data, next) {
		t.Fatalf("the frame behind it: %d bytes, err %v", len(data), err)
	}

	// Four pipelined frames — inside head's buffer, larger than it, empty,
	// tiny — with the stream cut once at every offset.
	payloads := [][]byte{patterned(300, 3), patterned(headBuf+900, 4), nil, patterned(10, 5)}
	var stream []byte
	for _, p := range payloads {
		stream = append(stream, frame(p)...)
	}
	for cut := 1; cut < len(stream); cut++ {
		c := &Client{conn: &scriptConn{stream: bytes.Clone(stream), cuts: []int{cut}}}
		c.resetBuffers()
		for i, want := range payloads {
			got, err := c.readFrame()
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("cut at %d: frame %d came out as %d bytes (want %d), err %v", cut, i, len(got), len(want), err)
			}
		}
		if _, err := c.readFrame(); err != io.EOF {
			t.Fatalf("cut at %d: after the last frame: %v, want io.EOF", cut, err)
		}
	}

	// The limit is checked before the payload is allocated.
	c = &Client{conn: &scriptConn{stream: frame(big)}, cfg: Config{MaxFrame: 1 << 10}}
	c.resetBuffers()
	if _, err := c.readFrame(); err == nil {
		t.Fatal("a frame over MaxFrame was read")
	}
}
