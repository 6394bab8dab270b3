// Package bloom implements the Bloom filters used by the equi-join
// verification mechanism of Section 3.5: plain m-bit/k-hash filters with
// the false-positive model of Eq. 1, plus certified partitioned filters
// over a sorted join attribute.
package bloom

import (
	"encoding/binary"
	"fmt"
	"math"

	"authdb/internal/digest"
)

// Filter is an m-bit Bloom filter with k hash functions. The k indexes
// are derived by double hashing from two independent 64-bit values, a
// standard construction with the same asymptotic FP behaviour as k
// independent hashes.
type Filter struct {
	bits []uint64
	m    uint64
	k    int
	n    int // number of inserted keys
}

// New creates a filter with m bits and k hash functions.
func New(m uint64, k int) *Filter {
	if m == 0 {
		m = 1
	}
	if k < 1 {
		k = 1
	}
	return &Filter{bits: make([]uint64, (m+63)/64), m: m, k: k}
}

// NewForCapacity creates a filter sized for n keys at bitsPerKey bits per
// key, with the FP-optimal number of hash functions k = (m/n)·ln2.
func NewForCapacity(n int, bitsPerKey float64) *Filter {
	if n < 1 {
		n = 1
	}
	m := uint64(math.Ceil(float64(n) * bitsPerKey))
	k := OptimalK(m, n)
	return New(m, k)
}

// OptimalK returns the FP-minimizing hash count k = (m/n)·ln2, at least 1.
func OptimalK(m uint64, n int) int {
	if n <= 0 {
		return 1
	}
	k := int(math.Round(float64(m) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	return k
}

// M returns the filter size in bits.
func (f *Filter) M() uint64 { return f.m }

// K returns the number of hash functions.
func (f *Filter) K() int { return f.k }

// N returns the number of keys inserted so far.
func (f *Filter) N() int { return f.n }

// SizeBytes returns the in-VO size of the filter bit array: ceil(m/8),
// matching the paper's m/8 accounting (the in-memory word array may be
// slightly larger).
func (f *Filter) SizeBytes() int { return int((f.m + 7) / 8) }

func hash2(key []byte) (uint64, uint64) {
	d := digest.SumConcat([]byte("bloom"), key)
	return binary.BigEndian.Uint64(d[0:8]), binary.BigEndian.Uint64(d[8:16])
}

// Add inserts key into the filter.
func (f *Filter) Add(key []byte) {
	h1, h2 := hash2(key)
	for i := 0; i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) % f.m
		f.bits[pos/64] |= 1 << (pos % 64)
	}
	f.n++
}

// MayContain reports whether key might be in the filter. False positives
// are possible; false negatives are not.
func (f *Filter) MayContain(key []byte) bool {
	h1, h2 := hash2(key)
	for i := 0; i < f.k; i++ {
		pos := (h1 + uint64(i)*h2) % f.m
		if f.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// AddUint64 inserts a 64-bit key.
func (f *Filter) AddUint64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	f.Add(b[:])
}

// MayContainUint64 tests a 64-bit key.
func (f *Filter) MayContainUint64(v uint64) bool {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return f.MayContain(b[:])
}

// FPRate returns the expected false-positive rate of this filter given
// its current load, per Eq. 1: (1 - e^{-kb/m})^k.
func (f *Filter) FPRate() float64 {
	return FPRate(f.m, f.n, f.k)
}

// FPRate evaluates Eq. 1 for an m-bit filter holding b keys with k
// hashes.
func FPRate(m uint64, b, k int) float64 {
	if m == 0 {
		return 1
	}
	return math.Pow(1-math.Exp(-float64(k)*float64(b)/float64(m)), float64(k))
}

// FPRateOptimal returns the paper's closed form 0.6185^(m/b) for a filter
// configured with the optimal k.
func FPRateOptimal(m uint64, b int) float64 {
	if b == 0 {
		return 0
	}
	return math.Pow(0.6185, float64(m)/float64(b))
}

// Marshal serializes the filter (header + bit array) for certification
// and transmission in a VO.
func (f *Filter) Marshal() []byte {
	out := make([]byte, 24+len(f.bits)*8)
	binary.BigEndian.PutUint64(out[0:8], f.m)
	binary.BigEndian.PutUint64(out[8:16], uint64(f.k))
	binary.BigEndian.PutUint64(out[16:24], uint64(f.n))
	for i, w := range f.bits {
		binary.BigEndian.PutUint64(out[24+i*8:], w)
	}
	return out
}

// Unmarshal reconstructs a filter serialized by Marshal.
func Unmarshal(data []byte) (*Filter, error) {
	if len(data) < 24 {
		return nil, fmt.Errorf("bloom: truncated filter (%d bytes)", len(data))
	}
	m := binary.BigEndian.Uint64(data[0:8])
	k := int(binary.BigEndian.Uint64(data[8:16]))
	n := int(binary.BigEndian.Uint64(data[16:24]))
	// New would round m = 0 and k < 1 up to 1: a filter Marshal never
	// wrote, and for m = 0 one word longer than the data. An m beyond the
	// bits present would overflow the word count below.
	if m == 0 || k < 1 || m > 8*uint64(len(data)) {
		return nil, fmt.Errorf("bloom: filter with m=%d, k=%d in %d bytes", m, k, len(data))
	}
	words := int((m + 63) / 64)
	if len(data) != 24+words*8 {
		return nil, fmt.Errorf("bloom: filter length %d inconsistent with m=%d", len(data), m)
	}
	f := New(m, k)
	f.n = n
	for i := range f.bits {
		f.bits[i] = binary.BigEndian.Uint64(data[24+i*8:])
	}
	return f, nil
}

// Digest returns the certification digest of the filter contents.
func (f *Filter) Digest() digest.Digest {
	return digest.Sum(f.Marshal())
}

// Equal reports whether two filters have identical parameters and bits.
func (f *Filter) Equal(g *Filter) bool {
	if f.m != g.m || f.k != g.k || f.n != g.n || len(f.bits) != len(g.bits) {
		return false
	}
	for i := range f.bits {
		if f.bits[i] != g.bits[i] {
			return false
		}
	}
	return true
}
