package bloom

import (
	"fmt"
	"sort"

	"authdb/internal/digest"
)

// Partition is one horizontal range of the join attribute with its own
// Bloom filter, as in Figure 3 of the paper. The range is [Lo, Hi): a key
// v belongs to this partition iff Lo <= v < Hi.
type Partition struct {
	Lo, Hi int64
	Filter *Filter
}

// Digest returns the certification digest of the partition: boundaries
// plus filter contents. Binding the boundaries prevents the server from
// presenting a filter for the wrong range.
func (p *Partition) Digest() digest.Digest {
	w := digest.NewWriter(64 + p.Filter.SizeBytes())
	w.PutInt64(p.Lo)
	w.PutInt64(p.Hi)
	w.PutBytes(p.Filter.Marshal())
	return w.Sum()
}

// PartitionedFilter splits a sorted attribute domain into p partitions,
// each with its own Bloom filter (Section 3.5). Finer partitions lower
// the reconstruction cost after deletions, at the price of more
// partition boundaries in the VO.
type PartitionedFilter struct {
	Partitions []Partition
	distinct   int // IB: number of distinct values covered
	bitsPerKey float64
}

// BuildPartitioned constructs a partitioned filter over the distinct
// values of the (not necessarily sorted or deduplicated) keys, with
// valuesPerPartition distinct values per partition (the paper's IB/p) and
// bitsPerKey filter bits per distinct value (the paper's m/IB).
func BuildPartitioned(keys []int64, valuesPerPartition int, bitsPerKey float64) (*PartitionedFilter, error) {
	if valuesPerPartition < 1 {
		return nil, fmt.Errorf("bloom: valuesPerPartition must be >= 1, got %d", valuesPerPartition)
	}
	distinct := distinctSorted(keys)
	pf := &PartitionedFilter{distinct: len(distinct), bitsPerKey: bitsPerKey}
	if len(distinct) == 0 {
		return pf, nil
	}
	for i := 0; i < len(distinct); i += valuesPerPartition {
		j := i + valuesPerPartition
		if j > len(distinct) {
			j = len(distinct)
		}
		chunk := distinct[i:j]
		f := NewForCapacity(len(chunk), bitsPerKey)
		for _, v := range chunk {
			f.AddUint64(uint64(v))
		}
		lo := chunk[0]
		var hi int64
		if j < len(distinct) {
			hi = distinct[j]
		} else {
			hi = maxInt64
		}
		if i == 0 {
			lo = minInt64
		}
		pf.Partitions = append(pf.Partitions, Partition{Lo: lo, Hi: hi, Filter: f})
	}
	return pf, nil
}

const (
	maxInt64 = int64(^uint64(0) >> 1)
	minInt64 = -maxInt64 - 1
)

func distinctSorted(keys []int64) []int64 {
	if len(keys) == 0 {
		return nil
	}
	s := make([]int64, len(keys))
	copy(s, keys)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// P returns the number of partitions.
func (pf *PartitionedFilter) P() int { return len(pf.Partitions) }

// Distinct returns IB, the number of distinct covered values.
func (pf *PartitionedFilter) Distinct() int { return pf.distinct }

// Find returns the index of the partition whose range covers v, or -1 if
// the filter is empty.
func (pf *PartitionedFilter) Find(v int64) int {
	if len(pf.Partitions) == 0 {
		return -1
	}
	idx := sort.Search(len(pf.Partitions), func(i int) bool {
		return pf.Partitions[i].Hi > v
	})
	if idx == len(pf.Partitions) {
		return len(pf.Partitions) - 1
	}
	return idx
}

// Digests returns the per-partition certification digests, which the data
// aggregator signs (one signature per partition, aggregatable).
func (pf *PartitionedFilter) Digests() []digest.Digest {
	ds := make([]digest.Digest, len(pf.Partitions))
	for i := range pf.Partitions {
		ds[i] = pf.Partitions[i].Digest()
	}
	return ds
}

// RebuildPartition reconstructs partition idx from the current distinct
// values in [Lo, Hi). This is the per-deletion maintenance cost the
// partitioning bounds: only one partition's filter is recomputed.
func (pf *PartitionedFilter) RebuildPartition(idx int, keys []int64) error {
	if idx < 0 || idx >= len(pf.Partitions) {
		return fmt.Errorf("bloom: partition %d out of range", idx)
	}
	part := &pf.Partitions[idx]
	var inRange []int64
	for _, v := range distinctSorted(keys) {
		if v >= part.Lo && v < part.Hi {
			inRange = append(inRange, v)
		}
	}
	n := len(inRange)
	if n == 0 {
		n = 1
	}
	f := NewForCapacity(n, pf.bitsPerKey)
	for _, v := range inRange {
		f.AddUint64(uint64(v))
	}
	part.Filter = f
	return nil
}
