// Package aggtree provides the aggregation-tree structures behind the
// query server's O(log n) proof construction.
//
// Two structures are exported:
//
//   - Tree: a self-balancing search tree over ⟨key, rid, signature⟩
//     leaves where every node additionally stores the aggregate of its
//     subtree. Any range aggregate [lo, hi] costs O(log n) Combine
//     operations, and an upsert or delete maintains the aggregates
//     incrementally in O(log n) operations — no full rebuild, ever.
//     Signatures are held decoded (sigagg.Folder) and subtree aggregates
//     as un-normalised sums, so an operation is an addition and nothing
//     else; a range is folded into the caller's accumulator and
//     normalised once, there. This is the structure each QueryServer
//     shard queries on the hot path.
//
//   - Frontier: the conceptual binary signature tree of SigCache (§4)
//     with only a *pinned frontier* of node aggregates materialized.
//     Uncached spans still cost linear work, which is exactly the
//     memory-constrained cost model the paper's Algorithm 1 optimizes;
//     sigcache layers its selection, admission and revision policies on
//     top of this structure.
//
// Both structures count the aggregation operations they perform (the
// paper's §4.1 cost unit: one Add/Remove/Combine of aggregate
// signatures), so callers can report and optimize proof-construction
// cost in scheme-independent terms.
//
// Neither structure locks internally: Tree is wrapped by the query
// server's per-shard locks, Frontier by sigcache.Cache's mutex. All read
// operations are safe for concurrent use with each other.
package aggtree
