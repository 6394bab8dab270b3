// Package aggtree provides the aggregation tree behind the query
// server's O(log n) proof construction, and each server shard's only
// index.
//
// Tree is a self-balancing search tree over ⟨key, rid, signature,
// payload⟩ leaves where every node additionally stores the aggregate of
// its subtree. Any range aggregate [lo, hi] costs O(log n) Combine
// operations, and an upsert or delete maintains the aggregates
// incrementally in O(log n) operations — no full rebuild, ever.
// Signatures are held decoded (sigagg.Folder) and subtree aggregates as
// un-normalised sums, so an operation is an addition and nothing else; a
// range is folded into the caller's accumulator and normalised once,
// there. The same tree answers the ordered reads a range proof needs —
// Predecessor and Successor for the boundary records, Ascend for the
// records in range — and carries an opaque payload per leaf, where the
// QueryServer keeps the record body and its sideband. (SigCache's
// pinned-frontier tree, the paper's §4 alternative, lives with its
// policies in internal/repro/sigcache.)
//
// The tree counts the aggregation operations it performs (the paper's
// §4.1 cost unit: one Add/Remove/Combine of aggregate signatures), so
// callers can report and optimize proof-construction cost in
// scheme-independent terms.
//
// Tree does not lock internally: it is wrapped by the query server's
// per-shard locks. All read operations are safe for concurrent use with
// each other.
package aggtree
