// Package workload generates the synthetic datasets and request streams
// of Section 5: uniformly generated relations with RecLen-byte records
// and 4-byte integer keys, update keys drawn from the relation, range
// selections with selectivity uniform in [sf/2, 3sf/2], and the
// TPC-E-like 'Security'/'Holding' tables used by the equi-join
// experiments (§5.5).
package workload

import (
	"math"
	"math/rand"

	"authdb/internal/chain"
)

// Config describes a synthetic relation per Table 2.
type Config struct {
	N      int   // number of records (default 1M)
	RecLen int   // record length in bytes (default 512)
	Seed   int64 // RNG seed
}

// DefaultConfig returns the Table 2 defaults.
func DefaultConfig() Config {
	return Config{N: 1_000_000, RecLen: 512, Seed: 1}
}

// Records generates cfg.N records with unique, roughly uniformly spaced
// keys (sorted ascending) and payloads padding each record to RecLen.
func Records(cfg Config) []*chain.Record {
	rng := rand.New(rand.NewSource(cfg.Seed))
	recs := make([]*chain.Record, cfg.N)
	key := int64(0)
	payload := cfg.RecLen - 4 - 8 - 8 // key + rid + ts
	if payload < 1 {
		payload = 1
	}
	for i := range recs {
		key += 1 + rng.Int63n(16) // unique, uniform-ish gaps
		attrs := [][]byte{make([]byte, payload)}
		rng.Read(attrs[0])
		recs[i] = &chain.Record{RID: uint64(i + 1), Key: key, Attrs: attrs, TS: 0}
	}
	return recs
}

// Keys extracts the record keys.
func Keys(recs []*chain.Record) []int64 {
	out := make([]int64, len(recs))
	for i, r := range recs {
		out[i] = r.Key
	}
	return out
}

// RangeQuery is a selection request over the key domain.
type RangeQuery struct {
	Lo, Hi int64
	Card   int // intended result cardinality
}

// QueryGen draws range selections distributed uniformly over a sorted
// key slice, with selectivity uniform in [sf/2, 3sf/2] as in §5.1.
type QueryGen struct {
	keys []int64
	sf   float64
	rng  *rand.Rand
}

// NewQueryGen creates a generator over the sorted keys.
func NewQueryGen(keys []int64, sf float64, seed int64) *QueryGen {
	return &QueryGen{keys: keys, sf: sf, rng: rand.New(rand.NewSource(seed))}
}

// Next draws one query.
func (g *QueryGen) Next() RangeQuery {
	n := len(g.keys)
	frac := g.sf * (0.5 + g.rng.Float64()) // U[sf/2, 3sf/2]
	card := int(math.Round(frac * float64(n)))
	if card < 1 {
		card = 1
	}
	if card > n {
		card = n
	}
	start := g.rng.Intn(n - card + 1)
	return RangeQuery{Lo: g.keys[start], Hi: g.keys[start+card-1], Card: card}
}

// HotRangeGen draws range selections from a fixed catalog of candidate
// ranges with Zipf-distributed popularity: rank 0 is the hottest range
// and the tail is long — the request skew of a serving workload where
// millions of users keep asking the same few ranges. Each generator
// owns its RNG, so concurrent clients sharing one catalog (required for
// their requests to coincide) each get an independent draw stream.
type HotRangeGen struct {
	catalog []RangeQuery
	zipf    *rand.Zipf
}

// NewHotRangeCatalog builds nRanges candidate ranges over the sorted
// keys with selectivity uniform in [sf/2, 3sf/2] (the §5.1 shape). The
// catalog is what clients must share; hand each client its own
// HotRangeGen over it.
func NewHotRangeCatalog(keys []int64, nRanges int, sf float64, seed int64) []RangeQuery {
	qg := NewQueryGen(keys, sf, seed)
	catalog := make([]RangeQuery, nRanges)
	for i := range catalog {
		catalog[i] = qg.Next()
	}
	return catalog
}

// NewHotRangeGen creates a generator over a shared catalog (which must
// be non-empty). theta > 1 is the Zipf exponent (1.07 is the
// YCSB-style default; larger is more skewed).
func NewHotRangeGen(catalog []RangeQuery, theta float64, seed int64) *HotRangeGen {
	if len(catalog) == 0 {
		panic("workload: empty hot-range catalog")
	}
	if theta <= 1 {
		theta = 1.07
	}
	rng := rand.New(rand.NewSource(seed))
	return &HotRangeGen{
		catalog: catalog,
		zipf:    rand.NewZipf(rng, theta, 1, uint64(len(catalog)-1)),
	}
}

// Next draws one range by Zipf rank.
func (g *HotRangeGen) Next() RangeQuery {
	return g.catalog[g.zipf.Uint64()]
}

// UpdateGen draws records to modify, uniformly.
type UpdateGen struct {
	keys []int64
	rng  *rand.Rand
}

// NewUpdateGen creates a generator over the key population.
func NewUpdateGen(keys []int64, seed int64) *UpdateGen {
	return &UpdateGen{keys: keys, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the key of the record to update.
func (g *UpdateGen) Next() int64 {
	return g.keys[g.rng.Intn(len(g.keys))]
}

// TPCE mirrors the §5.5 join workload: R is the 'Security' table
// (NR = 6850 records, IA = 6850 distinct R.A values, 18-byte records);
// S is a 'Holding' subset (NS = 894000 records over IB = 3425 distinct
// S.B values — a primary-key/foreign-key join where half the securities
// are held).
type TPCE struct {
	R []*chain.Record
	S []*chain.Record
	// Held marks the R.A values that occur in S.B.
	Held map[int64]bool
}

// TPCEConfig sizes the synthetic tables; defaults per §5.5.
type TPCEConfig struct {
	NR   int // security rows (6850)
	NS   int // holding rows (894000)
	IB   int // distinct held securities (3425)
	Seed int64
}

// DefaultTPCEConfig returns the paper's table sizes.
func DefaultTPCEConfig() TPCEConfig {
	return TPCEConfig{NR: 6850, NS: 894_000, IB: 3425, Seed: 7}
}

// NewTPCE generates the tables.
func NewTPCE(cfg TPCEConfig) *TPCE {
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &TPCE{Held: make(map[int64]bool, cfg.IB)}

	// Security: unique keys (the primary key R.A), 18-byte records.
	key := int64(0)
	for i := 0; i < cfg.NR; i++ {
		key += 1 + rng.Int63n(8)
		t.R = append(t.R, &chain.Record{
			RID:   uint64(i + 1),
			Key:   key,
			Attrs: [][]byte{make([]byte, 6)}, // 18B total: key+rid-ish header + 6B payload
			TS:    0,
		})
	}

	// Choose the IB held securities.
	perm := rng.Perm(cfg.NR)
	held := make([]int64, 0, cfg.IB)
	for _, idx := range perm[:cfg.IB] {
		v := t.R[idx].Key
		held = append(held, v)
		t.Held[v] = true
	}

	// Holding: NS rows with B drawn (skewed-ish uniform) from the held
	// securities; ~63-byte records.
	for i := 0; i < cfg.NS; i++ {
		b := held[rng.Intn(len(held))]
		t.S = append(t.S, &chain.Record{
			RID:   uint64(cfg.NR + i + 1),
			Key:   b,
			Attrs: [][]byte{make([]byte, 43)}, // ≈63B with header fields
			TS:    0,
		})
	}
	return t
}

// SelectR draws a fraction sel of R uniformly (the §5.5 selection on R)
// and, when alphaTarget >= 0, composes the sample so that the matched
// fraction equals alphaTarget as closely as possible (Fig. 11(a)'s
// controlled α).
func (t *TPCE) SelectR(sel float64, alphaTarget float64, seed int64) []*chain.Record {
	rng := rand.New(rand.NewSource(seed))
	want := int(sel * float64(len(t.R)))
	if want < 1 {
		want = 1
	}
	if alphaTarget < 0 {
		perm := rng.Perm(len(t.R))
		out := make([]*chain.Record, 0, want)
		for _, idx := range perm[:want] {
			out = append(out, t.R[idx])
		}
		return out
	}
	var matched, unmatched []*chain.Record
	for _, r := range t.R {
		if t.Held[r.Key] {
			matched = append(matched, r)
		} else {
			unmatched = append(unmatched, r)
		}
	}
	rng.Shuffle(len(matched), func(i, j int) { matched[i], matched[j] = matched[j], matched[i] })
	rng.Shuffle(len(unmatched), func(i, j int) { unmatched[i], unmatched[j] = unmatched[j], unmatched[i] })
	nm := int(alphaTarget * float64(want))
	if nm > len(matched) {
		nm = len(matched)
	}
	nu := want - nm
	if nu > len(unmatched) {
		nu = len(unmatched)
	}
	out := append([]*chain.Record{}, matched[:nm]...)
	out = append(out, unmatched[:nu]...)
	return out
}
