package wire

// The networked serving protocol: length-prefixed frames over a byte
// stream, each frame carrying one versioned message. Requests flow user
// → server ('P' query plan, 'T' one relation's summaries); responses
// flow back in request order ('C' composite answer, 'F' summary batch,
// 'E' error), so a client may pipeline any number of requests before
// reading. composite.go has the plan and answer messages; this file the
// framing, the summary batch and the error.

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"authdb/internal/freshness"
)

// DefaultMaxFrame bounds a frame's payload unless a tighter limit is
// configured: large enough for a multi-megabyte answer, small enough
// that a hostile peer cannot provoke unbounded allocation.
const DefaultMaxFrame = 64 << 20

// frameHeaderLen is the length prefix: a big-endian uint32 payload
// size.
const frameHeaderLen = 4

// WriteFrame writes payload as one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [frameHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame, reusing buf's storage when it is large
// enough, and returns the payload (valid until the next ReadFrame with
// the same buffer). max bounds the payload size (0 = DefaultMaxFrame;
// math.MaxInt = the 32-bit length limit).
// A connection closed cleanly between frames returns io.EOF; a close
// mid-frame returns io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, buf []byte, max int) ([]byte, error) {
	n, err := ReadFrameHeader(r, max)
	if err != nil {
		return nil, err
	}
	return ReadFramePayload(r, buf, n)
}

// ReadFrameHeader reads and validates one frame's length prefix,
// returning the payload size without allocating for it. Splitting the
// header from the payload read lets a transport arm a payload-
// completion deadline once bytes have started flowing — the idle wait
// for a header and the bounded receipt of an announced payload are
// different trust regimes (see server.NetConfig.ReadTimeout).
func ReadFrameHeader(r io.Reader, max int) (int, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, fmt.Errorf("%w: truncated frame header", ErrCorrupt)
		}
		return 0, err
	}
	// Bounds-check in uint64 before any int conversion: on 32-bit
	// platforms a hostile 2^31..2^32-1 length would wrap negative as an
	// int and sail past both checks into a slicing panic.
	if u := uint64(binary.BigEndian.Uint32(hdr[:])); u > uint64(max) {
		return 0, fmt.Errorf("%w: frame of %d bytes exceeds limit %d", ErrCorrupt, u, max)
	}
	return int(binary.BigEndian.Uint32(hdr[:])), nil
}

// readStep is the most a frame read allocates ahead of the bytes
// received: a payload past it is read in steps, its buffer growing with
// what has arrived.
const readStep = 1 << 20

// ReadFramePayload reads the n payload bytes a validated header
// announced, reusing buf's storage when it is large enough. Past buf's
// capacity, memory follows the bytes actually received — at most
// readStep ahead of them, and at most twice them — so a hostile length
// that is never delivered allocates almost nothing, whatever cap its
// header was checked against.
func ReadFramePayload(r io.Reader, buf []byte, n int) ([]byte, error) {
	if cap(buf) < n {
		buf = make([]byte, 0, min(n, readStep))
	}
	buf = buf[:0]
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(n-len(buf), max(len(buf), readStep)))
		}
		got, err := io.ReadFull(r, buf[len(buf):min(n, cap(buf))])
		buf = buf[:len(buf)+got]
		if err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil, fmt.Errorf("%w: truncated frame (%d of %d bytes)", ErrCorrupt, len(buf), n)
			}
			return nil, err
		}
	}
	return buf, nil
}

// Kind peeks at a message's kind byte after validating the version, so
// a receiver can dispatch before committing to a full decode.
func Kind(data []byte) (byte, error) {
	if len(data) < 2 {
		return 0, fmt.Errorf("%w: short message (%d bytes)", ErrCorrupt, len(data))
	}
	if data[0] != Version {
		return 0, fmt.Errorf("%w: version %d, want %d", ErrCorrupt, data[0], Version)
	}
	return data[1], nil
}

// ---- Summaries (server -> user) ----

// AppendSummaries appends a batch of certified summaries (the response
// to a 'T' request).
func AppendSummaries(buf []byte, sums []freshness.Summary) []byte {
	w := &writer{buf: buf}
	w.u8(Version)
	w.u8(KindSummaries)
	w.u64(uint64(len(sums)))
	for i := range sums {
		putSummary(w, &sums[i])
	}
	return w.buf
}

// DecodeSummaries parses a summary batch.
func DecodeSummaries(data []byte) ([]freshness.Summary, error) {
	r := &reader{buf: data}
	if err := header(r, KindSummaries); err != nil {
		return nil, err
	}
	n, err := r.u64()
	if err != nil {
		return nil, err
	}
	if n > maxLen {
		return nil, fmt.Errorf("%w: summary count %d", ErrCorrupt, n)
	}
	var sums []freshness.Summary
	for i := uint64(0); i < n; i++ {
		s, err := getSummary(r)
		if err != nil {
			return nil, err
		}
		sums = append(sums, s)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return sums, nil
}

// ---- Error (server -> user) ----

// Error codes carried in 'E' responses: a machine-readable byte ahead
// of the human-readable message, so clients can choose a reaction
// (back off, give up, report) without parsing prose.
const (
	// ErrCodeGeneric is a request-level failure (bad range, decode
	// error): retrying the same request will fail the same way.
	ErrCodeGeneric = byte(0)
	// ErrCodeOverloaded is admission control shedding load: the request
	// was rejected before any work, and a retry after backoff is the
	// intended response (reject-fast beats queue collapse).
	ErrCodeOverloaded = byte(1)
	// ErrCodeBadFrame means the request frame or payload did not parse.
	// A client that knows it sent a well-formed request may treat this
	// as in-flight corruption and resend over a fresh connection.
	ErrCodeBadFrame = byte(2)
)

// AppendErrorCode appends an error response with an explicit code.
func AppendErrorCode(buf []byte, code byte, msg string) []byte {
	w := &writer{buf: buf}
	w.u8(Version)
	w.u8(KindError)
	w.u8(code)
	w.bytes([]byte(msg))
	return w.buf
}

// DecodeErrorCode parses an error response into its code and message.
func DecodeErrorCode(data []byte) (byte, string, error) {
	r := &reader{buf: data}
	if err := header(r, KindError); err != nil {
		return 0, "", err
	}
	code, err := r.u8()
	if err != nil {
		return 0, "", err
	}
	msg, err := r.bytes()
	if err != nil {
		return 0, "", err
	}
	if err := r.done(); err != nil {
		return 0, "", err
	}
	return code, string(msg), nil
}
