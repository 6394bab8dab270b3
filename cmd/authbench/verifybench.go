package main

import (
	"crypto/rand"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"authdb/internal/core"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
)

// verifySweepPoint is one worker count of the multi-core warm-path
// sweep (degenerates to a single row on a one-core host).
type verifySweepPoint struct {
	Workers       int     `json:"workers"`
	AnswersPerSec float64 `json:"answers_per_sec"`
}

// verifyBenchResult is the BENCH_verify.json document: the BAS
// verification fast path measured against its own portable oracle on
// identical answers, with cache statistics proving which path ran.
type verifyBenchResult struct {
	Scheme           string `json:"scheme"`
	N                int    `json:"n"`
	Answers          int    `json:"answers"`
	RecordsPerAnswer int    `json:"records_per_answer"`
	GOMAXPROCS       int    `json:"gomaxprocs"`

	// Answers/sec through core.Verifier.VerifyAnswers, single worker.
	// portable: the pre-fast-path slow verifier (WithPortableVerify).
	// cold:     fast path, fresh scheme instance, empty caches.
	// warm:     fast path re-verifying answers it has seen before (the
	//           hot-range serving regime the fleet clients live in).
	PortableAnswersPerSec float64 `json:"portable_answers_per_sec"`
	ColdAnswersPerSec     float64 `json:"cold_answers_per_sec"`
	WarmAnswersPerSec     float64 `json:"warm_answers_per_sec"`
	ColdSpeedup           float64 `json:"cold_speedup"`
	WarmSpeedup           float64 `json:"warm_speedup"`

	PortableAllocsPerAns uint64 `json:"portable_allocs_per_answer"`
	WarmAllocsPerAns     uint64 `json:"warm_allocs_per_answer"`

	// Warm-path worker sweep, 1..GOMAXPROCS doubling.
	Sweep []verifySweepPoint `json:"sweep"`

	// Counters from the warm scheme instance after the measured passes:
	// nonzero H2CCacheHits and FastVerifies are the proof that the
	// measured numbers came off the fast path.
	Verify *sigagg.VerifyStats `json:"verify"`

	// Equivalence evidence: fast and portable agreed (accept and
	// reject) on every probed answer, and fast-path signing emitted
	// byte-identical signatures to the portable signer.
	DecisionsAgree      bool `json:"decisions_agree"`
	SignaturesIdentical bool `json:"signatures_identical"`
	SelfTested          bool `json:"self_tested"`
}

// runVerifyBench measures the precomputed-EC verification fast path
// against the portable oracle it replaced, writing BENCH_verify.json.
// Signing and verification use separate scheme instances so no
// signer-side state can warm the measured verifier.
func runVerifyBench(args []string) error {
	fs := newFlags("verify")
	n := fs.Int("n", 20_000, "relation size")
	answers := fs.Int("answers", 512, "answers per measured batch")
	k := fs.Int("k", 20, "records per answer (matches the committed ingest baseline)")
	passes := fs.Int("passes", 3, "measurement passes (best-of)")
	short := fs.Bool("short", false, "CI smoke mode: small relation, few answers")
	check := fs.Bool("check", true, "run the fast-vs-portable equivalence oracle and scheme self-test")
	out := fs.String("out", "BENCH_verify.json", "output JSON path (empty to skip)")
	validate := fs.String("validate", "", "validate an existing BENCH_verify.json and exit")
	if args != nil {
		if err := fs.Parse(args); err != nil {
			return err
		}
	}
	if *validate != "" {
		return checkVerifyJSON(*validate)
	}
	if *short {
		*n, *answers = 3_000, 64
	}

	// Build the catalog under a signing-only scheme instance.
	signScheme := bas.New(0)
	priv, pub, err := signScheme.KeyGen(nil)
	if err != nil {
		return err
	}
	signBound, err := sigagg.Bind(signScheme, pub)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	da, err := core.NewDataAggregator(signBound, priv, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("verify: loading %d records...\n", *n)
	msg, err := da.Load(ingestRecords(*n), 1)
	if err != nil {
		return err
	}
	qs := core.NewQueryServer(signBound)
	if err := qs.Apply(msg); err != nil {
		return err
	}

	// A sweep of k-record answers; the measured batch is its prefix.
	var sweep []*core.Answer
	var ranges []core.Range
	for lo := 0; lo < *n && len(sweep) < *answers; lo += *k {
		hi := lo + *k
		if hi > *n {
			hi = *n
		}
		r := core.Range{Lo: int64(lo+1) * 10, Hi: int64(hi) * 10}
		ans, err := qs.Query(r.Lo, r.Hi)
		if err != nil {
			return err
		}
		sweep = append(sweep, ans)
		ranges = append(ranges, r)
	}
	batch, batchRanges := sweep, ranges

	res := verifyBenchResult{
		Scheme:           signScheme.Name(),
		N:                *n,
		Answers:          len(batch),
		RecordsPerAnswer: *k,
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
	}

	// newVerifier builds a Verifier over a fresh scheme instance with
	// one worker; opts select the portable oracle.
	newVerifier := func(opts ...bas.Option) (*core.Verifier, *bas.Scheme, error) {
		sch := bas.New(0, opts...)
		bound, err := sigagg.Bind(sch, pub)
		if err != nil {
			return nil, nil, err
		}
		v := core.NewVerifier(bound, pub, cfg)
		v.SetParallelism(1)
		return v, sch, nil
	}
	timeBatch := func(v *core.Verifier) (ns int64, allocs uint64, err error) {
		var a, b uint64
		a, b, err = measureAllocs(func() error {
			start := time.Now()
			_, err := v.VerifyAnswers(batch, batchRanges, 5)
			ns = time.Since(start).Nanoseconds()
			return err
		})
		_ = b
		allocs = a
		return ns, allocs, err
	}
	toRate := func(ns int64) float64 { return float64(len(batch)) / (float64(ns) / 1e9) }

	// Portable oracle: the exact pre-fast-path code, fresh instance per
	// pass so no pass warms the next.
	fmt.Printf("verify: portable oracle, %d answers x %d records...\n", len(batch), *k)
	var portNs int64
	var portAllocs uint64
	for p := 0; p < *passes; p++ {
		v, _, err := newVerifier(bas.WithPortableVerify())
		if err != nil {
			return err
		}
		ns, allocs, err := timeBatch(v)
		if err != nil {
			return fmt.Errorf("verify: portable pass rejected valid batch: %w", err)
		}
		if p == 0 || ns < portNs {
			portNs, portAllocs = ns, allocs
		}
	}

	// Cold fast path: fresh scheme per pass, every cache starts empty.
	fmt.Printf("verify: fast path, cold caches...\n")
	var coldNs int64
	for p := 0; p < *passes; p++ {
		v, _, err := newVerifier()
		if err != nil {
			return err
		}
		ns, _, err := timeBatch(v)
		if err != nil {
			return fmt.Errorf("verify: cold pass rejected valid batch: %w", err)
		}
		if p == 0 || ns < coldNs {
			coldNs = ns
		}
	}

	// Warm fast path: one scheme instance, one priming pass, then the
	// measured passes re-verify answers whose digests are all cached.
	fmt.Printf("verify: fast path, warm caches...\n")
	warmV, warmScheme, err := newVerifier()
	if err != nil {
		return err
	}
	if _, _, err := timeBatch(warmV); err != nil {
		return fmt.Errorf("verify: warm priming pass rejected valid batch: %w", err)
	}
	var warmNs int64
	var warmAllocs uint64
	for p := 0; p < *passes; p++ {
		ns, allocs, err := timeBatch(warmV)
		if err != nil {
			return fmt.Errorf("verify: warm pass rejected valid batch: %w", err)
		}
		if p == 0 || ns < warmNs {
			warmNs, warmAllocs = ns, allocs
		}
	}

	// Warm-path worker sweep (1..GOMAXPROCS doubling, always ending at
	// GOMAXPROCS). On a one-core host this is the single row workers=1.
	for w := 1; ; w *= 2 {
		if w > res.GOMAXPROCS {
			w = res.GOMAXPROCS
		}
		warmV.SetParallelism(w)
		var best int64
		for p := 0; p < *passes; p++ {
			ns, _, err := timeBatch(warmV)
			if err != nil {
				return err
			}
			if p == 0 || ns < best {
				best = ns
			}
		}
		res.Sweep = append(res.Sweep, verifySweepPoint{Workers: w, AnswersPerSec: toRate(best)})
		if w >= res.GOMAXPROCS {
			break
		}
	}

	na := uint64(len(batch))
	res.PortableAnswersPerSec = toRate(portNs)
	res.ColdAnswersPerSec = toRate(coldNs)
	res.WarmAnswersPerSec = toRate(warmNs)
	res.ColdSpeedup = float64(portNs) / float64(coldNs)
	res.WarmSpeedup = float64(portNs) / float64(warmNs)
	res.PortableAllocsPerAns = portAllocs / na
	res.WarmAllocsPerAns = warmAllocs / na
	vs := warmScheme.VerifyStats()
	res.Verify = &vs
	if vs.FastVerifies == 0 || vs.H2CCacheHits == 0 {
		return fmt.Errorf("verify: warm passes did not exercise the fast path: %+v", vs)
	}

	if *check {
		if err := runVerifyChecks(&res, pub, batch, batchRanges, cfg); err != nil {
			return err
		}
	}

	fmt.Printf("verify: portable %8.1f ans/s (%d allocs/ans)\n", res.PortableAnswersPerSec, res.PortableAllocsPerAns)
	fmt.Printf("verify: cold     %8.1f ans/s  speedup %5.2fx\n", res.ColdAnswersPerSec, res.ColdSpeedup)
	fmt.Printf("verify: warm     %8.1f ans/s  speedup %5.2fx (%d allocs/ans)\n", res.WarmAnswersPerSec, res.WarmSpeedup, res.WarmAllocsPerAns)
	for _, sp := range res.Sweep {
		fmt.Printf("verify: warm workers=%d  %8.1f ans/s\n", sp.Workers, sp.AnswersPerSec)
	}
	fmt.Printf("verify: h2c cache %d hits / %d misses, %d table builds, fast=%d portable=%d\n",
		vs.H2CCacheHits, vs.H2CCacheMisses, vs.TableBuilds, vs.FastVerifies, vs.PortableVerifies)
	if *check {
		fmt.Printf("verify: self-test ok, decisions agree, signatures byte-identical\n")
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
		fmt.Printf("verify: wrote %s\n", *out)
	}
	return nil
}

// runVerifyChecks is the equivalence oracle: the scheme self-test
// (limb field vs math/big, Jacobian arithmetic, point decoding and
// hash-to-curve vs crypto/elliptic, fast vs portable on crafted
// batches), accept/reject agreement on real
// answers including a tampered one, and byte-identical signatures from
// fast and portable signer instances.
func runVerifyChecks(res *verifyBenchResult, pub sigagg.PublicKey, batch []*core.Answer, ranges []core.Range, cfg core.Config) error {
	fastScheme := bas.New(0)
	if err := fastScheme.SelfTest(rand.Reader, 20); err != nil {
		return fmt.Errorf("verify: self-test: %w", err)
	}
	res.SelfTested = true

	fastBound, err := sigagg.Bind(fastScheme, pub)
	if err != nil {
		return err
	}
	portScheme := bas.New(0, bas.WithPortableVerify())
	portBound, err := sigagg.Bind(portScheme, pub)
	if err != nil {
		return err
	}
	fastV := core.NewVerifier(fastBound, pub, cfg)
	portV := core.NewVerifier(portBound, pub, cfg)

	// Valid batch: both must accept.
	if _, err := fastV.VerifyAnswers(batch, ranges, 5); err != nil {
		return fmt.Errorf("verify: fast path rejected valid batch: %w", err)
	}
	if _, err := portV.VerifyAnswers(batch, ranges, 5); err != nil {
		return fmt.Errorf("verify: portable path rejected valid batch: %w", err)
	}

	// Tampered batch: flip one signature byte in a deep copy of one
	// answer; both paths must reject.
	tampered := make([]*core.Answer, len(batch))
	copy(tampered, batch)
	bad := *batch[0]
	badChain := *bad.Chain
	badChain.Agg = append([]byte(nil), badChain.Agg...)
	badChain.Agg[len(badChain.Agg)/2] ^= 0x40
	bad.Chain = &badChain
	tampered[0] = &bad
	_, fastErr := fastV.VerifyAnswers(tampered, ranges, 5)
	_, portErr := portV.VerifyAnswers(tampered, ranges, 5)
	if fastErr == nil || portErr == nil {
		return fmt.Errorf("verify: tampered batch not rejected (fast=%v portable=%v)", fastErr, portErr)
	}
	res.DecisionsAgree = true

	// Fast and portable scheme instances must sign byte-identically —
	// the fast path changed only verification, never the signatures on
	// the wire.
	privF, pubF, err := fastScheme.KeyGen(newDetRand())
	if err != nil {
		return err
	}
	privP, pubP, err := portScheme.KeyGen(newDetRand())
	if err != nil {
		return err
	}
	bpF, bpP := pubF.(*bas.PublicKey), pubP.(*bas.PublicKey)
	if bpF.X.Cmp(bpP.X) != 0 || bpF.Y.Cmp(bpP.Y) != 0 {
		return fmt.Errorf("verify: deterministic keygen diverged between fast and portable instances")
	}
	digests := make([][]byte, 64)
	for i := range digests {
		digests[i] = []byte(fmt.Sprintf("verify-bench-digest-%03d-pad-to-plausible-len", i))
	}
	sigsF, err := fastScheme.SignBatch(privF, digests)
	if err != nil {
		return err
	}
	sigsP, err := portScheme.SignBatch(privP, digests)
	if err != nil {
		return err
	}
	for i := range sigsF {
		if string(sigsF[i]) != string(sigsP[i]) {
			return fmt.Errorf("verify: signature %d differs between fast and portable instances", i)
		}
	}
	res.SignaturesIdentical = true
	return nil
}

// detRandReader is a fixed-sequence io.Reader so the fast and portable
// instances derive the same key for the byte-identical-signature check.
type detRandReader struct{ state byte }

func newDetRand() *detRandReader { return &detRandReader{state: 0x5a} }

func (d *detRandReader) Read(p []byte) (int, error) {
	for i := range p {
		d.state = d.state*131 + 7
		p[i] = d.state
	}
	return len(p), nil
}

// Floors for -validate, at well under half of what the limb kernel
// measures (warm 88x, cold 7.7x on the 2-core reference box; math/big
// field arithmetic measured 14x and 1.04x): a kernel regression trips
// them, a slow CI host does not.
const (
	minWarmSpeedup = 25
	minColdSpeedup = 3
)

// checkVerifyJSON validates a BENCH_verify.json for CI: well-formed,
// every mode measured, the fast path at least minWarmSpeedup (caches
// warm) and minColdSpeedup (caches empty) times the portable oracle on
// the same host, and the equivalence evidence present. The speedup
// gates are relative (same-host portable vs fast), so they hold on any
// machine.
func checkVerifyJSON(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var res verifyBenchResult
	if err := json.Unmarshal(data, &res); err != nil {
		return fmt.Errorf("verify: %s is not valid JSON: %w", path, err)
	}
	if res.PortableAnswersPerSec <= 0 || res.ColdAnswersPerSec <= 0 || res.WarmAnswersPerSec <= 0 {
		return fmt.Errorf("verify: %s: non-positive throughput %+v", path, res)
	}
	if res.WarmSpeedup < minWarmSpeedup {
		return fmt.Errorf("verify: %s: warm speedup %.2fx < %dx over the portable oracle", path, res.WarmSpeedup, minWarmSpeedup)
	}
	if res.ColdSpeedup < minColdSpeedup {
		return fmt.Errorf("verify: %s: cold speedup %.2fx < %dx over the portable oracle", path, res.ColdSpeedup, minColdSpeedup)
	}
	if res.Verify == nil || res.Verify.FastVerifies == 0 || res.Verify.H2CCacheHits == 0 {
		return fmt.Errorf("verify: %s: no evidence the fast path ran (%+v)", path, res.Verify)
	}
	if !res.DecisionsAgree || !res.SignaturesIdentical || !res.SelfTested {
		return fmt.Errorf("verify: %s: equivalence evidence missing (agree=%v identical=%v selftest=%v)",
			path, res.DecisionsAgree, res.SignaturesIdentical, res.SelfTested)
	}
	if len(res.Sweep) == 0 {
		return fmt.Errorf("verify: %s: missing worker sweep", path)
	}
	fmt.Printf("verify: %s is well-formed (portable %.0f, cold %.0f, warm %.0f ans/s, warm speedup %.2fx)\n",
		path, res.PortableAnswersPerSec, res.ColdAnswersPerSec, res.WarmAnswersPerSec, res.WarmSpeedup)
	return nil
}
