// Package core ties the paper's mechanisms into the three-party protocol
// of Section 1: a trusted DataAggregator that owns the data and signing
// key, an untrusted QueryServer that answers range selections with
// correctness proofs, and a user-side Verifier that checks authenticity,
// completeness (signature chaining, §3.3) and freshness (certified
// update summaries, §3.1). The server builds range aggregates from
// per-shard aggregation trees; the paper's SigCache (§4) is reproduced
// separately in internal/repro/sigcache.
//
// The DataAggregator produces explicit UpdateMsg values that the caller
// delivers to the QueryServer (and the summaries within them to
// Verifiers), mirroring the DA → QS dissemination path; tests and the
// simulator can interpose on this channel.
package core

import (
	"errors"

	"authdb/internal/chain"
	"authdb/internal/freshness"
	"authdb/internal/join"
	"authdb/internal/sigagg"
)

// Record is the relation schema ⟨rid, Aind, A1..AM, ts⟩.
type Record = chain.Record

// SignedRecord pairs a record with its chained signature.
//
// For a projection-mode relation (WithAttrSigning) the chained record is
// attribute-stripped — the chain proves membership and completeness, and
// the attribute values travel as a sideband with one owner signature per
// attribute slot (§3.4): AttrVals are the values at Rec.TS and AttrSigs
// the matching signatures over AttrDigest(rid, slot, value, ts). Both
// are nil for ordinary relations.
type SignedRecord struct {
	Rec *Record
	Sig sigagg.Signature

	AttrVals [][]byte
	AttrSigs []sigagg.Signature
}

// UpdateMsg is one dissemination unit from the DataAggregator: fresh or
// re-signed records (including chaining neighbours), deletions, — when a
// ρ-period closes — the certified summary, and — when the owner
// re-certifies it — the Bloom filter on the key attribute (§3.5).
type UpdateMsg struct {
	TS      int64
	Upserts []SignedRecord
	Deletes []chain.Ref // records removed from the relation, by key and rid
	Summary *freshness.Summary
	Filter  *join.FilterCert
}

// Config selects the protocol parameters (Table 2 defaults via
// DefaultConfig).
type Config struct {
	Rho      int64 // summary period ρ
	RhoPrime int64 // signature renewal age ρ'
	// Skew is δ: the clock skew plus delivery slack a clocked verifier
	// (Verifier.UseClock) allows past ρ before the newest summary it holds
	// proves the server has stopped publishing.
	Skew int64
}

// DefaultConfig returns ρ = 1s, ρ' = 900s and δ = 1s expressed in
// milliseconds, the paper's ρ and ρ'.
func DefaultConfig() Config {
	return Config{Rho: 1_000, RhoPrime: 900_000, Skew: 1_000}
}

// ErrUnknownKey is returned for operations on absent records.
var ErrUnknownKey = errors.New("core: unknown key")

// recordDigest computes the chained digest of rec between its
// neighbours.
func recordDigest(rec *Record, left, right chain.Ref) []byte {
	d := chain.Digest(rec, left, right)
	return d[:]
}

// DefaultRelation names the relation of a one-relation catalog: what
// `authserve` serves (and derives its demo key for) when no -catalog is
// given, and the relation a client's Config.Pub verifies.
const DefaultRelation = "r"
