package bloom

import (
	"math"

	"authdb/internal/digest"
)

// Test-only API: the false-positive model and the accessors the tests
// check filters against.

// N returns the number of keys inserted so far.
func (f *Filter) N() int { return f.n }

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

// MayContain probes the partition covering v.
func (pf *PartitionedFilter) MayContain(v int64) bool {
	idx := pf.Find(v)
	if idx < 0 {
		return false
	}
	return pf.Partitions[idx].Filter.MayContainUint64(uint64(v))
}
