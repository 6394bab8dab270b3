// Package authdb is a reproduction of "Scalable Verification for
// Outsourced Dynamic Databases" (Pang, Zhang, Mouratidis; VLDB 2009): a
// query-answer authentication system for outsourced databases built on
// signature aggregation rather than Merkle hash trees, providing
// authenticity, completeness and freshness guarantees while supporting
// concurrent updates.
//
// # Architecture
//
// Three parties (internal/core): a trusted DataAggregator owns the data
// and the signing key, chain-signs every record between its neighbours
// (internal/chain) and publishes certified ρ-period update summaries
// (internal/freshness); an untrusted QueryServer stores the signed
// records and answers range selections with correctness proofs; a
// user-side Verifier checks each answer with nothing but the
// aggregator's public key.
//
// The QueryServer is sharded by key range. Each shard is one
// incrementally maintained aggregation tree (internal/aggtree) whose
// leaves hold the records with their signatures — it finds the
// boundaries and neighbours and walks the records in range, as the
// paper's ASign B+-tree (internal/btree, Table 1's subject) does — so
// building the aggregate signature for a range proof costs O(log n)
// Combine operations per overlapped shard instead of one aggregation per
// result record. The tree holds its
// signatures decoded and its subtree aggregates un-normalised
// (sigagg.Folder), so an operation is one group addition and an answer
// is normalised and encoded once. The paper's SigCache (§4) is reproduced on its own in
// internal/repro/sigcache, behind the fig6/fig10 experiments and the
// ablations; its tree mechanics live in aggtree too, as a
// pinned-frontier structure. Everything under internal/repro (sigcache,
// the §5 simulator, the EMB-tree baseline) serves the paper
// reproduction only; the service does not import it.
//
// In front of the tree walk sits a serving layer (internal/anscache +
// QueryServer.Serve): a sharded, epoch-versioned cache of fully
// materialized answers — records, aggregate signature and pre-encoded
// wire bytes — with singleflight coalescing so N concurrent identical
// cold requests cost one tree walk, and second-request, frequency-biased
// LRU admission (an answer asked for once is served, not kept).
// Updates bump per-shard epoch counters and thereby invalidate exactly
// the cached ranges they intersect; hot-range hits are O(1) and perform
// zero aggregation operations. internal/server pairs the cache with the
// wire codec.
//
// The network front end turns the library into a deployable system:
// server.NetServer (daemon: cmd/authserve) exposes the wire protocol
// over TCP — length-prefixed frames, pipelined in-order responses,
// zero-copy writes from the answer cache's pooled encodings, graceful
// shutdown — and internal/client is the remote user: it pipelines range
// queries, recomputes every chain digest, batch-verifies aggregates and
// tracks the certified freshness summary stream, trusting only the
// aggregator's public key. A decoded answer aliases the frame it arrived
// in (the client reads each into a buffer of its own), so an answer byte
// is touched once between the socket and the hash; only what a session
// retains, the certified summaries, is copied. examples/remote is the end-to-end
// walkthrough.
//
// Every served relation is run by one relation runtime (internal/wal,
// wal.Runtime): it recovers the owner/server pair from a snapshot plus
// the write-ahead log tail or loads it, and carries every dissemination
// message append → fsync-if-summary → apply → publish to the replication
// feed (internal/replica), snapshotting in the background at the cut
// between two messages. A server is a catalog of 1..k such relations
// (core.Catalog; one relation is the catalog of one, named
// core.DefaultRelation) under one
// streaming select-project-join planner (internal/query), and every
// query a client sends is a plan — a range selection the plan that is
// one scan — answered by one composite the client verifies per relation
// (one request frame 'P', one answer frame 'C', one client path). authserve, the
// chaos and fleet soaks (tests of internal/server) and the repo
// benchmark all run that one pipeline; in memory and unreplicated are its
// nil-store and nil-feed cases.
//
// Aggregate-signature schemes live under internal/sigagg: bilinear
// aggregate signatures (sigagg/bas), condensed RSA (sigagg/crsa) and a
// zero-cost counting scheme for experiments (sigagg/xortest), all
// behind one Scheme interface whose batch forms (SignBatch, VerifyJobs,
// AggregateInto) are methods and, for the serving side, Folder: stored
// signatures prepared once, running sums encoded once. internal/wire carries the DA→server and
// server→user messages with pooled encode buffers; its frame kinds are
// named constants in one table (wire.Kinds).
//
// The implementation inventory is in DESIGN.md and README.md; runnable
// examples are under examples/. Three harnesses, one question each:
// benchmark/ (its own module, BENCHMARK.json) measures the service's
// throughput, latency, bytes and memory per workload and per layer;
// go test decides safety — verification, equivalence of every fast
// path with its reference, the chaos and fleet soaks; and cmd/authbench
// regenerates the tables and figures of the paper. The root package
// carries the module documentation and the per-experiment benchmark
// suite (bench_test.go), including BenchmarkQuery, the n=1M/k=10k
// headline comparison of tree versus linear proof construction.
package authdb
