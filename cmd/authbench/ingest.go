package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"authdb/internal/core"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
	"authdb/internal/sigagg/crsa"
	"authdb/internal/wal"
)

// ingestPoint is one serial-vs-pipelined Load measurement, optionally
// with a WAL-backed (durable) pipelined column.
type ingestPoint struct {
	Scheme                   string  `json:"scheme"`
	N                        int     `json:"n"`
	SerialNsPerRecord        int64   `json:"serial_ns_per_record"`
	PipelinedNsPerRecord     int64   `json:"pipelined_ns_per_record"`
	Speedup                  float64 `json:"speedup"`
	SerialAllocsPerRecord    uint64  `json:"serial_allocs_per_record"`
	SerialBytesPerRecord     uint64  `json:"serial_alloc_bytes_per_record"`
	PipelinedAllocsPerRecord uint64  `json:"pipelined_allocs_per_record"`
	PipelinedBytesPerRecord  uint64  `json:"pipelined_alloc_bytes_per_record"`
	SignaturesIdentical      bool    `json:"signatures_identical"`
	AnswersVerified          bool    `json:"answers_verified"`

	// WAL mode: the same pipelined load with every batch appended to a
	// group-committed write-ahead log and a final fsync fence.
	// WalOverhead = wal_ns / pipelined_ns (target ≤ ~1.3x).
	WalNsPerRecord    int64   `json:"wal_ns_per_record,omitempty"`
	WalOverhead       float64 `json:"wal_overhead,omitempty"`
	WalBytesPerRecord int64   `json:"wal_bytes_per_record,omitempty"`
	WalGroupCommitMS  float64 `json:"wal_group_commit_ms,omitempty"`
	WalRecovered      bool    `json:"wal_recovered,omitempty"`
}

// ingestResult is the BENCH_ingest.json document, extending the perf
// trajectory started by BENCH_proof.json to the owner (signing) side of
// the protocol. Verification throughput is BENCH_verify.json's.
type ingestResult struct {
	Workers int           `json:"workers"`
	Points  []ingestPoint `json:"points"`
}

// runIngest measures DataAggregator.Load through the signing pipeline
// against the WithSerialSigning baseline, writing BENCH_ingest.json.
// Every pipelined signature is checked byte-identical to its serial
// counterpart AND round-tripped through Verifier.VerifyAnswers via a
// full-coverage query sweep.
func runIngest(args []string) error {
	fs := newFlags("ingest")
	nList := fs.String("n", "100000", "comma-separated relation sizes")
	schemes := fs.String("schemes", "bas,crsa", "comma-separated schemes (bas, crsa)")
	k := fs.Int("k", 20, "records per answer of the full-coverage verification sweep")
	short := fs.Bool("short", false, "CI smoke mode: small n")
	walMode := fs.Bool("wal", false, "also measure the durable (write-ahead logged) pipelined load")
	walBatch := fs.Int("wal-batch", 1024, "records per WAL append in -wal mode (the streaming-ingest batch size)")
	walCommit := fs.Duration("wal-commit", 2*time.Millisecond, "WAL group-commit window in -wal mode")
	out := fs.String("out", "BENCH_ingest.json", "output JSON path (empty to skip)")
	check := fs.String("check", "", "validate an existing BENCH_ingest.json and exit")
	if args != nil {
		if err := fs.Parse(args); err != nil {
			return err
		}
	}
	if *check != "" {
		return checkIngestJSON(*check)
	}
	if *short {
		*nList, *k = "5000", 10
	}

	res := ingestResult{Workers: runtime.GOMAXPROCS(0)}
	for _, name := range strings.Split(*schemes, ",") {
		var raw sigagg.Scheme
		switch strings.TrimSpace(name) {
		case "bas":
			raw = bas.New(0)
		case "crsa":
			raw = crsa.New(crsa.DefaultBits)
		default:
			return fmt.Errorf("ingest: unknown scheme %q", name)
		}
		for _, ns := range strings.Split(*nList, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(ns))
			if err != nil || n < 2 {
				return fmt.Errorf("ingest: bad relation size %q", ns)
			}
			pt, err := measureIngest(raw, n, *k)
			if err != nil {
				return err
			}
			if *walMode {
				if err := measureWalIngest(raw, n, *walBatch, *walCommit, &pt); err != nil {
					return err
				}
			}
			res.Points = append(res.Points, pt)
		}
	}

	fmt.Printf("ingest: %d workers\n", res.Workers)
	for _, p := range res.Points {
		fmt.Printf("  load   %-5s n=%-8d serial %8d ns/rec (%d allocs/rec)  pipelined %8d ns/rec (%d allocs/rec)  speedup %.2fx  verified=%v\n",
			p.Scheme, p.N, p.SerialNsPerRecord, p.SerialAllocsPerRecord,
			p.PipelinedNsPerRecord, p.PipelinedAllocsPerRecord, p.Speedup, p.AnswersVerified)
		if p.WalNsPerRecord > 0 {
			fmt.Printf("  wal    %-5s n=%-8d durable %9d ns/rec  overhead %.2fx  %d B/rec on disk  recovered=%v\n",
				p.Scheme, p.N, p.WalNsPerRecord, p.WalOverhead, p.WalBytesPerRecord, p.WalRecovered)
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("ingest: wrote %s\n", *out)
	}
	return nil
}

// measureWalIngest re-runs the pipelined load with durability: every
// batch of signed records is appended to a group-committed write-ahead
// log (the streaming-ingest shape authserve -data uses) and the run
// ends on an fsync fence. The recovered-state check then replays the
// log into a fresh query server and verifies a full-coverage answer, so
// the overhead number only counts if the bytes on disk actually
// reconstruct the catalog.
func measureWalIngest(raw sigagg.Scheme, n, batch int, commit time.Duration, pt *ingestPoint) error {
	priv, pub, err := raw.KeyGen(nil)
	if err != nil {
		return err
	}
	bound, err := sigagg.Bind(raw, pub)
	if err != nil {
		return err
	}
	da, err := core.NewDataAggregator(bound, priv, core.DefaultConfig())
	if err != nil {
		return err
	}
	recs := ingestRecords(n)
	dir, err := os.MkdirTemp("", "authdb-wal-bench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := wal.Open(dir, wal.Options{GroupCommit: commit})
	if err != nil {
		return err
	}
	defer store.Close()

	fmt.Printf("ingest: %s n=%d wal-backed load (batch %d, group commit %v)...\n", raw.Name(), n, batch, commit)
	start := time.Now()
	msg, err := da.Load(recs, 1)
	if err != nil {
		return err
	}
	for lo := 0; lo < len(msg.Upserts); lo += batch {
		hi := lo + batch
		if hi > len(msg.Upserts) {
			hi = len(msg.Upserts)
		}
		if _, err := store.AppendMsg(&core.UpdateMsg{TS: msg.TS, Upserts: msg.Upserts[lo:hi]}); err != nil {
			return err
		}
	}
	if err := store.Sync(); err != nil {
		return err
	}
	walNs := time.Since(start).Nanoseconds()

	var walBytes int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if fi, err := e.Info(); err == nil {
			walBytes += fi.Size()
		}
	}

	// The durable bytes must reconstruct the catalog: replay into a
	// fresh server and verify a full-coverage answer.
	qs := core.NewQueryServer(bound)
	if _, err := store.Recover(nil, qs); err != nil {
		return fmt.Errorf("ingest: wal recovery: %w", err)
	}
	if qs.Len() != n {
		return fmt.Errorf("ingest: wal recovery rebuilt %d of %d records", qs.Len(), n)
	}
	ans, err := qs.Query(10, int64(n)*10)
	if err != nil {
		return err
	}
	verifier := core.NewVerifier(bound, pub, core.DefaultConfig())
	if _, err := verifier.VerifyAnswer(ans, 10, int64(n)*10, 5); err != nil {
		return fmt.Errorf("ingest: recovered catalog failed verification: %w", err)
	}

	pt.WalNsPerRecord = walNs / int64(n)
	pt.WalOverhead = float64(walNs) / (float64(pt.PipelinedNsPerRecord) * float64(n))
	pt.WalBytesPerRecord = walBytes / int64(n)
	pt.WalGroupCommitMS = float64(commit) / float64(time.Millisecond)
	pt.WalRecovered = true
	return nil
}

// ingestRecords builds a fresh record slice (Load assigns rids, so each
// measurement needs its own copies).
func ingestRecords(n int) []*core.Record {
	recs := make([]*core.Record, n)
	for i := range recs {
		recs[i] = &core.Record{Key: int64(i+1) * 10, Attrs: [][]byte{[]byte("payload")}}
	}
	return recs
}

func measureIngest(raw sigagg.Scheme, n, k int) (ingestPoint, error) {
	var pt ingestPoint
	priv, pub, err := raw.KeyGen(nil)
	if err != nil {
		return pt, err
	}
	bound, err := sigagg.Bind(raw, pub)
	if err != nil {
		return pt, err
	}
	cfg := core.DefaultConfig()

	fmt.Printf("ingest: %s n=%d serial load...\n", raw.Name(), n)
	serialDA, err := core.NewDataAggregator(bound, priv, cfg, core.WithSerialSigning())
	if err != nil {
		return pt, err
	}
	// Workload generation stays outside the alloc window, so the
	// counters charge only the Load pipelines.
	serialRecs := ingestRecords(n)
	var serialNs int64
	var serialMsg *core.UpdateMsg
	serialAllocs, serialBytes, err := measureAllocs(func() error {
		start := time.Now()
		m, err := serialDA.Load(serialRecs, 1)
		serialNs = time.Since(start).Nanoseconds()
		serialMsg = m
		return err
	})
	if err != nil {
		return pt, err
	}

	fmt.Printf("ingest: %s n=%d pipelined load...\n", raw.Name(), n)
	pipeDA, err := core.NewDataAggregator(bound, priv, cfg)
	if err != nil {
		return pt, err
	}
	pipeRecs := ingestRecords(n)
	var pipeNs int64
	var pipeMsg *core.UpdateMsg
	pipeAllocs, pipeBytes, err := measureAllocs(func() error {
		start := time.Now()
		m, err := pipeDA.Load(pipeRecs, 1)
		pipeNs = time.Since(start).Nanoseconds()
		pipeMsg = m
		return err
	})
	if err != nil {
		return pt, err
	}

	// The pipeline must emit exactly the serial baseline's signatures
	// (both schemes are deterministic).
	identical := len(serialMsg.Upserts) == len(pipeMsg.Upserts)
	for i := 0; identical && i < len(serialMsg.Upserts); i++ {
		identical = string(serialMsg.Upserts[i].Sig) == string(pipeMsg.Upserts[i].Sig)
	}
	if !identical {
		return pt, fmt.Errorf("ingest: %s pipelined signatures differ from serial baseline", raw.Name())
	}

	// Round-trip every signature through Verifier.VerifyAnswer: a
	// full-coverage sweep of chunked range queries over the pipelined
	// load, batch-verified.
	qs := core.NewQueryServer(bound)
	if err := qs.Apply(pipeMsg); err != nil {
		return pt, err
	}
	verifier := core.NewVerifier(bound, pub, cfg)
	var sweep []*core.Answer
	var ranges []core.Range
	verified := 0
	for lo := 0; lo < n; lo += k {
		hi := lo + k
		if hi > n {
			hi = n
		}
		r := core.Range{Lo: int64(lo+1) * 10, Hi: int64(hi) * 10}
		ans, err := qs.Query(r.Lo, r.Hi)
		if err != nil {
			return pt, err
		}
		verified += len(ans.Chain.Records)
		sweep = append(sweep, ans)
		ranges = append(ranges, r)
	}
	if verified != n {
		return pt, fmt.Errorf("ingest: sweep covered %d of %d records", verified, n)
	}
	if _, err := verifier.VerifyAnswers(sweep, ranges, 5); err != nil {
		return pt, fmt.Errorf("ingest: full-coverage verification failed: %w", err)
	}

	pt = ingestPoint{
		Scheme:                   raw.Name(),
		N:                        n,
		SerialNsPerRecord:        serialNs / int64(n),
		PipelinedNsPerRecord:     pipeNs / int64(n),
		Speedup:                  float64(serialNs) / float64(pipeNs),
		SerialAllocsPerRecord:    serialAllocs / uint64(n),
		SerialBytesPerRecord:     serialBytes / uint64(n),
		PipelinedAllocsPerRecord: pipeAllocs / uint64(n),
		PipelinedBytesPerRecord:  pipeBytes / uint64(n),
		SignaturesIdentical:      true,
		AnswersVerified:          true,
	}

	return pt, nil
}

// checkIngestJSON validates that a BENCH_ingest.json is well-formed:
// parseable, at least one load point, positive timings, and every point
// verified. Used by the CI smoke step.
func checkIngestJSON(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var res ingestResult
	if err := json.Unmarshal(data, &res); err != nil {
		return fmt.Errorf("ingest: %s is not valid JSON: %w", path, err)
	}
	if res.Workers < 1 {
		return fmt.Errorf("ingest: %s: workers %d < 1", path, res.Workers)
	}
	if len(res.Points) == 0 {
		return fmt.Errorf("ingest: %s: missing load points", path)
	}
	for _, p := range res.Points {
		if p.SerialNsPerRecord <= 0 || p.PipelinedNsPerRecord <= 0 || p.Speedup <= 0 {
			return fmt.Errorf("ingest: %s: non-positive timing in point %+v", path, p)
		}
		if !p.AnswersVerified || !p.SignaturesIdentical {
			return fmt.Errorf("ingest: %s: unverified point %+v", path, p)
		}
		// WAL columns are optional, but when present the durable run must
		// have reconstructed and verified the catalog from disk.
		if p.WalNsPerRecord != 0 && (p.WalNsPerRecord < 0 || p.WalOverhead <= 0 || !p.WalRecovered) {
			return fmt.Errorf("ingest: %s: bad wal point %+v", path, p)
		}
	}
	fmt.Printf("ingest: %s is well-formed (%d load points)\n", path, len(res.Points))
	return nil
}
