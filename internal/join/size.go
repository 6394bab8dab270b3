package join

import (
	"sort"

	"authdb/internal/bloom"
)

// VOStats breaks down the measured proof size for the unmatched fraction
// of a join answer (the part Figure 11 plots). Boundary proofs ship the
// enclosing S records (the chained anchor of §3.3 — RecSize bytes each),
// while partition boundaries are bare attribute values (AttrSize bytes).
type VOStats struct {
	AttrSize         int // |S.B| in bytes (4 in §5.5)
	RecSize          int // boundary-record size in bytes (≈63 for Holding)
	BoundaryValues   int // deduplicated boundary records transmitted
	FilterBytes      int // total bits/8 of the partition filters returned
	PartitionEdges   int // partition boundary values transmitted
	ProbedPartitions int
	FalsePositives   int
	UnmatchedValues  int
}

// TotalBytes is the VO size for the unmatched-record proof.
func (v VOStats) TotalBytes() int {
	return v.RecSize*v.BoundaryValues + v.AttrSize*v.PartitionEdges + v.FilterBytes
}

// MeasureBV measures the actual BV proof size: for every unmatched value
// the enclosing S.B boundary pair, with duplicates across unmatched
// values elided (the dedup of §3.5).
func MeasureBV(unmatched []int64, sB []int64, recSize int) VOStats {
	st := VOStats{AttrSize: recSize, RecSize: recSize, UnmatchedValues: len(unmatched)}
	st.AttrSize = 0 // BV ships no partition edges
	bounds := map[int64]bool{}
	for _, v := range unmatched {
		lo, hi, ok := enclosing(sB, v)
		if !ok {
			continue
		}
		bounds[lo] = true
		bounds[hi] = true
	}
	st.BoundaryValues = len(bounds)
	return st
}

// MeasureBF measures the actual BF proof size: the distinct partitions
// probed by unmatched values (filter bytes + partition edges, adjacent
// edges deduplicated, capped at returning all p+1 edges), plus boundary
// pairs for the values that false-positive on their partition filter.
func MeasureBF(unmatched []int64, pf *bloom.PartitionedFilter, sB []int64, attrSize, recSize int) VOStats {
	st := VOStats{AttrSize: attrSize, RecSize: recSize, UnmatchedValues: len(unmatched)}
	probed := map[int]bool{}
	bounds := map[int64]bool{}
	for _, v := range unmatched {
		idx := pf.Find(v)
		if idx < 0 {
			continue
		}
		if !probed[idx] {
			probed[idx] = true
			st.FilterBytes += pf.Partitions[idx].Filter.SizeBytes()
		}
		if pf.Partitions[idx].Filter.MayContainUint64(uint64(v)) {
			st.FalsePositives++
			lo, hi, ok := enclosing(sB, v)
			if ok {
				bounds[lo] = true
				bounds[hi] = true
			}
		}
	}
	st.ProbedPartitions = len(probed)
	st.BoundaryValues = len(bounds)
	// Partition edges: each probed partition contributes its two edges,
	// shared edges between adjacent probed partitions counted once. If
	// that exceeds returning every edge, return them all (p+1).
	edges := map[int64]bool{}
	for idx := range probed {
		edges[pf.Partitions[idx].Lo] = true
		edges[pf.Partitions[idx].Hi] = true
	}
	st.PartitionEdges = len(edges)
	if all := pf.P() + 1; st.PartitionEdges > all {
		st.PartitionEdges = all
	}
	return st
}

// enclosing returns the S.B values immediately below and above v in the
// sorted distinct slice sB.
func enclosing(sB []int64, v int64) (lo, hi int64, ok bool) {
	if len(sB) == 0 {
		return 0, 0, false
	}
	i := sort.Search(len(sB), func(i int) bool { return sB[i] >= v })
	switch {
	case i == 0:
		return sB[0], sB[0], true // v below domain: one boundary suffices
	case i == len(sB):
		return sB[len(sB)-1], sB[len(sB)-1], true
	default:
		return sB[i-1], sB[i], true
	}
}

// Z evaluates the Fig. 4 configuration surface
// z = 0.0432·(IA/IB) + 2·(p/IB); BF is viable when z < 0.75 (for the
// primary-key/foreign-key case with 8 bits per distinct value and
// |S.B| = 4).
func Z(iaOverIB, ibOverP float64) float64 {
	if ibOverP == 0 {
		return 1e18
	}
	return 0.0432*iaOverIB + 2/ibOverP
}

// ZThreshold is the Fig. 4 viability plane.
const ZThreshold = 0.75
