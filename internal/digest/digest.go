// Package digest provides the one-way hash primitive used throughout the
// authentication schemes, plus canonical byte serialization of the fields
// that get hashed.
//
// The paper assumes 160-bit digests (SHA-1 era). We produce 160-bit digests
// by truncating SHA-256, which keeps the space accounting of the paper
// (20-byte digests, same length as a BAS signature) while relying on a
// collision-resistant stdlib hash.
package digest

import (
	"crypto/sha256"
	"encoding/binary"
)

// Size is the digest length in bytes (160 bits, as in the paper).
const Size = 20

// Digest is a 160-bit one-way hash value.
type Digest [Size]byte

// Sum computes the 160-bit digest of msg.
func Sum(msg []byte) Digest {
	full := sha256.Sum256(msg)
	var d Digest
	copy(d[:], full[:Size])
	return d
}

// SumConcat computes the digest of the concatenation of parts, with
// unambiguous length-prefixed framing (so that ("ab","c") and ("a","bc")
// hash differently, unlike raw concatenation).
func SumConcat(parts ...[]byte) Digest {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write(p)
	}
	var full [sha256.Size]byte
	h.Sum(full[:0])
	var d Digest
	copy(d[:], full[:Size])
	return d
}

// A Writer accumulates fields into a canonical byte string for hashing or
// signing. Every Put* method uses a fixed-width or length-prefixed
// encoding, so distinct field sequences never serialize identically.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with capacity hint n.
func NewWriter(n int) *Writer {
	return &Writer{buf: make([]byte, 0, n)}
}

// Reset empties the Writer, keeping its buffer, so one Writer can hash a
// run of messages with no allocation once it has grown to the largest.
func (w *Writer) Reset() { w.buf = w.buf[:0] }

// PutUint64 appends a fixed-width unsigned integer.
func (w *Writer) PutUint64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	w.buf = append(w.buf, b[:]...)
}

// PutInt64 appends a fixed-width signed integer (order-preserving two's
// complement with flipped sign bit is not needed for hashing; we store raw).
func (w *Writer) PutInt64(v int64) {
	w.PutUint64(uint64(v))
}

// PutBytes appends a length-prefixed byte string.
func (w *Writer) PutBytes(p []byte) {
	w.PutUint64(uint64(len(p)))
	w.buf = append(w.buf, p...)
}

// PutDigest appends a digest value.
func (w *Writer) PutDigest(d Digest) {
	w.buf = append(w.buf, d[:]...)
}

// Bytes returns the accumulated canonical byte string.
func (w *Writer) Bytes() []byte { return w.buf }

// Sum returns the 160-bit digest of the accumulated byte string.
func (w *Writer) Sum() Digest { return Sum(w.buf) }
