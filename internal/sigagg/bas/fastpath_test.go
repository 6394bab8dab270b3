package bas

import (
	"bytes"
	"crypto/elliptic"
	"crypto/sha256"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"testing"

	"authdb/internal/sigagg"
)

// marshalPortable encodes (x, y) with crypto/elliptic, (0, 0) and nil
// standing for the identity.
func marshalPortable(s *Scheme, x, y *big.Int) sigagg.Signature {
	if isInfinityPortable(x, y) {
		return s.identity()
	}
	return elliptic.MarshalCompressed(s.curve, x, y)
}

// detRand is a deterministic io.Reader for reproducible key material.
type detRand struct{ r *rand.Rand }

func (d *detRand) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(d.r.Intn(256))
	}
	return len(p), nil
}

func newDetRand(seed int64) *detRand { return &detRand{r: rand.New(rand.NewSource(seed))} }

func testDigests(n int, seed byte) [][]byte {
	ds := make([][]byte, n)
	for i := range ds {
		h := sha256.Sum256([]byte{seed, byte(i), byte(i >> 8)})
		d := make([]byte, 32)
		copy(d, h[:])
		ds[i] = d
	}
	return ds
}

// TestSelfTest holds the kernel to independent implementations: field
// arithmetic against math/big, Jacobian add/double/mixed-add and point
// (de)compression against crypto/elliptic, hash-to-curve against its
// math/big original, and fast-path verification against the portable
// path on valid and tampered inputs.
func TestSelfTest(t *testing.T) {
	const iters = 6
	s, rnd := New(0), newDetRand(1)
	params := s.curve.Params()
	randBelow := func(m *big.Int) *big.Int {
		buf := make([]byte, 40) // 64 spare bits: the bias is negligible
		rnd.Read(buf)
		k := new(big.Int).SetBytes(buf)
		return k.Mod(k, m)
	}
	randPoint := func() (*big.Int, *big.Int) {
		for {
			k := randBelow(params.N)
			if k.Sign() == 0 {
				continue
			}
			return s.curve.ScalarBaseMult(k.Bytes())
		}
	}

	// 1. Field arithmetic vs math/big, on random operands and the edges.
	operands := []*big.Int{
		big.NewInt(0), big.NewInt(1),
		new(big.Int).Sub(params.P, big.NewInt(1)),
		new(big.Int).Sub(params.P, big.NewInt(2)),
	}
	for i := 0; i < 2*iters; i++ {
		operands = append(operands, randBelow(params.P))
	}
	want := new(big.Int)
	for _, a := range operands {
		for _, b := range operands {
			if err := fieldAgrees(params.P, a, b, want); err != nil {
				t.Fatal(err)
			}
		}
	}

	// 2. Jacobian arithmetic vs crypto/elliptic.
	for i := 0; i < iters; i++ {
		ax, ay := randPoint()
		bx, by := randPoint()
		a, b := affFromBig(ax, ay), affFromBig(bx, by)
		var j, o jacPoint
		j.setAffine(a)
		j.mixedAdd(b)
		sx, sy := s.curve.Add(ax, ay, bx, by)
		if !j.equalsBig(sx, sy) {
			t.Fatalf("jacobian mixed add diverges from curve.Add")
		}
		dx, dy := s.curve.Double(ax, ay)
		o.setAffine(a)
		o.double()
		if !o.equalsBig(dx, dy) {
			t.Fatalf("jacobian double diverges from curve.Double")
		}
		// (a+b) + 2a with both operands off Z = 1.
		j.addJac(&o)
		tx, ty := s.curve.Add(sx, sy, dx, dy)
		if !j.equalsBig(tx, ty) {
			t.Fatalf("jacobian full add diverges from curve.Add")
		}
		var back affPoint
		if !j.toAffine(&back) || feToBig(&back.x).Cmp(tx) != 0 || feToBig(&back.y).Cmp(ty) != 0 {
			t.Fatalf("toAffine diverges from curve.Add")
		}
		// P + P via mixed add must match doubling.
		j.setAffine(a)
		j.mixedAdd(a)
		if !j.equalsBig(dx, dy) {
			t.Fatalf("jacobian P+P diverges from curve.Double")
		}
		// P + (-P) must be infinity.
		neg := *a
		feNeg(&neg.y, &neg.y)
		j.setAffine(a)
		j.mixedAdd(&neg)
		if !j.isInfinity() {
			t.Fatalf("jacobian P+(-P) not infinity")
		}

		// 3. Point encoding and hash-to-curve vs their oracles.
		enc := elliptic.MarshalCompressed(s.curve, ax, ay)
		var dec affPoint
		if !decompress(&dec, enc) || dec != *a {
			t.Fatalf("decompress diverges from elliptic.UnmarshalCompressed")
		}
		var re [pointLen]byte
		compress(re[:], &dec)
		if !bytes.Equal(re[:], enc) {
			t.Fatalf("compress diverges from elliptic.MarshalCompressed")
		}
		var h affPoint
		var msg []byte
		hashToCurve(&h, &msg, enc)
		if hx, hy := s.hashToCurvePortable(enc); h != *affFromBig(hx, hy) {
			t.Fatalf("hash-to-curve diverges from its math/big original")
		}
	}

	// 4. Fast vs portable verification, valid and tampered.
	portable := New(0, withPortableVerify())
	priv, pubk, err := s.KeyGen(rnd)
	if err != nil {
		t.Fatal(err)
	}
	digests := make([][]byte, 6)
	for i := range digests {
		digests[i] = []byte(fmt.Sprintf("selftest-digest-%d-aaaaaaaaaaaaaa", i))
	}
	sigs, err := s.SignBatch(priv, digests)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sigs {
		one, err := s.Sign(priv, digests[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sigs[i], one) {
			t.Fatalf("SignBatch and Sign disagree on digest %d", i)
		}
	}
	agg, err := s.AggregateInto(nil, sigs)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []sigagg.VerifyJob{
		{Digests: digests[:3], Agg: mustAgg(s, sigs[:3])},
		{Digests: digests[3:], Agg: mustAgg(s, sigs[3:])},
		{Digests: digests, Agg: agg}, // duplicates digests across jobs
	}
	if err := s.VerifyJobs(pubk, jobs); err != nil {
		t.Fatalf("fast path rejected valid batch: %v", err)
	}
	if err := portable.VerifyJobs(pubk, jobs); err != nil {
		t.Fatalf("portable path rejected valid batch: %v", err)
	}
	// Tamper: flip a bit in one aggregate; both paths must reject.
	bad := agg.Clone()
	bad[5] ^= 0x40
	badJobs := []sigagg.VerifyJob{{Digests: digests, Agg: bad}}
	fastErr := s.VerifyJobs(pubk, badJobs)
	portErr := portable.VerifyJobs(pubk, badJobs)
	if (fastErr == nil) != (portErr == nil) {
		t.Fatalf("fast/portable disagree on tampered aggregate (fast=%v portable=%v)", fastErr, portErr)
	}
	if fastErr == nil {
		t.Fatalf("tampered aggregate accepted")
	}
	// Tamper: drop a digest.
	shortJobs := []sigagg.VerifyJob{{Digests: digests[:5], Agg: agg}}
	if s.VerifyJobs(pubk, shortJobs) == nil || portable.VerifyJobs(pubk, shortJobs) == nil {
		t.Fatalf("aggregate over missing digest accepted")
	}
}

// fieldAgrees checks every field operation on (a, b), both below p,
// against math/big. want is scratch.
func fieldAgrees(p, a, b, want *big.Int) error {
	x, y := feFromBig(a), feFromBig(b)
	var z fe
	check := func(op string) error {
		if got := feToBig(&z); got.Cmp(want) != 0 {
			return fmt.Errorf("bas: selftest: field %s(%x, %x) = %x, math/big says %x", op, a, b, got, want)
		}
		return nil
	}
	feMul(&z, &x, &y)
	want.Mul(a, b).Mod(want, p)
	if err := check("mul"); err != nil {
		return err
	}
	feSqr(&z, &x)
	want.Mul(a, a).Mod(want, p)
	if err := check("sqr"); err != nil {
		return err
	}
	feAdd(&z, &x, &y)
	want.Add(a, b).Mod(want, p)
	if err := check("add"); err != nil {
		return err
	}
	feSub(&z, &x, &y)
	want.Sub(a, b).Mod(want, p)
	if err := check("sub"); err != nil {
		return err
	}
	feNeg(&z, &x)
	want.Neg(a).Mod(want, p)
	if err := check("neg"); err != nil {
		return err
	}
	feInv(&z, &x)
	if want.ModInverse(a, p) == nil {
		want.SetInt64(0) // a = 0
	}
	if err := check("inv"); err != nil {
		return err
	}
	isSquare := feSqrt(&z, &x)
	if root := want.ModSqrt(a, p); (root != nil) != isSquare {
		return fmt.Errorf("bas: selftest: field sqrt(%x) square=%v, math/big disagrees", a, isSquare)
	} else if root != nil {
		return check("sqrt")
	}
	return nil
}

func mustAgg(s *Scheme, sigs []sigagg.Signature) sigagg.Signature {
	a, err := s.AggregateInto(nil, sigs)
	if err != nil {
		panic(err)
	}
	return a
}

// TestFastMatchesPortable is the end-to-end equivalence property: for
// random batches, the fast and portable paths agree on accept, and on
// reject for each class of tampering.
func TestFastMatchesPortable(t *testing.T) {
	fast := New(0)
	portable := New(0, withPortableVerify())
	rnd := newDetRand(5)
	priv, pub, err := fast.KeyGen(rnd)
	if err != nil {
		t.Fatal(err)
	}
	digests := testDigests(24, 7)
	sigs, err := fast.SignBatch(priv, digests)
	if err != nil {
		t.Fatal(err)
	}
	// Byte-identical signatures between the schemes (and vs Sign).
	psigs, err := portable.SignBatch(priv, digests)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sigs {
		if !bytes.Equal(sigs[i], psigs[i]) {
			t.Fatalf("signature %d differs fast vs portable", i)
		}
	}

	mkJobs := func() []sigagg.VerifyJob {
		var jobs []sigagg.VerifyJob
		for i := 0; i < len(digests); i += 8 {
			agg, err := fast.AggregateInto(nil, sigs[i:i+8])
			if err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs, sigagg.VerifyJob{Digests: digests[i : i+8], Agg: agg})
		}
		// A job whose digests overlap the first two jobs — multiplicity > 1.
		agg, err := fast.AggregateInto(nil, sigs[4:12])
		if err != nil {
			t.Fatal(err)
		}
		return append(jobs, sigagg.VerifyJob{Digests: digests[4:12], Agg: agg})
	}

	check := func(name string, jobs []sigagg.VerifyJob, wantOK bool) {
		t.Helper()
		ferr := fast.VerifyJobs(pub, jobs)
		perr := portable.VerifyJobs(pub, jobs)
		if (ferr == nil) != (perr == nil) {
			t.Fatalf("%s: fast (%v) and portable (%v) disagree", name, ferr, perr)
		}
		if (ferr == nil) != wantOK {
			t.Fatalf("%s: verify = %v, want ok=%v", name, ferr, wantOK)
		}
	}

	check("valid", mkJobs(), true)
	// Run again with warm caches — same decision, now entirely from cache.
	check("valid-warm", mkJobs(), true)

	bad := mkJobs()
	bad[0].Agg = bad[0].Agg.Clone()
	bad[0].Agg[7] ^= 0x01
	check("flipped-agg-byte", bad, false)

	bad = mkJobs()
	bad[1].Digests = bad[1].Digests[:7]
	check("dropped-digest", bad, false)

	bad = mkJobs()
	extra := sha256.Sum256([]byte("unsigned"))
	bad[2].Digests = append(append([][]byte{}, bad[2].Digests...), extra[:])
	check("extra-digest", bad, false)

	bad = mkJobs()
	bad[0].Agg = fast.identity()
	check("identity-agg", bad, false)

	// Aggregate over zero digests with identity aggregate is valid.
	check("empty-job", []sigagg.VerifyJob{{Agg: fast.identity()}}, true)
	// A cold aggregate with no digest beside it (the misses of a call are
	// aggregates only) is not.
	check("agg-without-digests", []sigagg.VerifyJob{{Agg: sigs[23]}}, false)
}

// TestAggregateVerifySingleFast pins the single-job path (Verify /
// AggregateVerify) through the fast dispatcher, including its error
// message shape relied on by callers' logs.
func TestAggregateVerifySingleFast(t *testing.T) {
	s := New(0)
	priv, pub, err := s.KeyGen(newDetRand(6))
	if err != nil {
		t.Fatal(err)
	}
	d := testDigests(1, 9)[0]
	sig, err := s.Sign(priv, d)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(pub, d, sig); err != nil {
		t.Fatal(err)
	}
	wrong := testDigests(1, 10)[0]
	err = s.Verify(pub, wrong, sig)
	if err == nil {
		t.Fatal("verify of wrong digest passed")
	}
	if want := fmt.Sprintf("BAS mismatch over %d digests", 1); !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("error %q missing %q", err, want)
	}
}

// TestAggregateIntoJacobian checks the Jacobian aggregation path
// produces byte-identical aggregates to a chain of two-operand calls,
// including
// cancellation to the identity.
func TestAggregateIntoJacobian(t *testing.T) {
	s := New(0)
	priv, _, err := s.KeyGen(newDetRand(7))
	if err != nil {
		t.Fatal(err)
	}
	digests := testDigests(9, 11)
	sigs, err := s.SignBatch(priv, digests)
	if err != nil {
		t.Fatal(err)
	}
	want := s.identity()
	for _, sig := range sigs {
		if want, err = s.AggregateInto(nil, []sigagg.Signature{want, sig}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.AggregateInto(nil, sigs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("AggregateInto %x != chained two-operand AggregateInto %x", got, want)
	}
	// Cancellation: agg + remove-all must encode the identity.
	empty, err := s.AggregateInto(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !s.isIdentity(empty) {
		t.Fatalf("empty aggregate not identity: %x", empty)
	}
}

// TestTableReuse asserts the per-key precomputation is built exactly
// once per public key, however many verifications share it.
func TestTableReuse(t *testing.T) {
	s := New(0)
	rnd := newDetRand(8)
	priv1, pub1, _ := s.KeyGen(rnd)
	priv2, pub2, _ := s.KeyGen(rnd)
	d := testDigests(4, 12)
	for i := 0; i < 5; i++ {
		sig, err := s.Sign(priv1, d[i%4])
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Verify(pub1, d[i%4], sig); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.VerifyStats().TableBuilds; got != 1 {
		t.Fatalf("TableBuilds = %d after one key, want 1", got)
	}
	sig, _ := s.Sign(priv2, d[0])
	if err := s.Verify(pub2, d[0], sig); err != nil {
		t.Fatal(err)
	}
	if got := s.VerifyStats().TableBuilds; got != 2 {
		t.Fatalf("TableBuilds = %d after two keys, want 2", got)
	}
}

// TestConcurrentSharedScheme hammers one scheme instance — the shared
// cache, table map, and scratch pool — from many goroutines mixing
// signing, batch verification, and aggregation. Run under -race in CI.
func TestConcurrentSharedScheme(t *testing.T) {
	s := New(0)
	priv, pub, err := s.KeyGen(newDetRand(10))
	if err != nil {
		t.Fatal(err)
	}
	digests := testDigests(64, 14)
	sigs, err := s.SignBatch(priv, digests)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				lo := (g*4 + i) % 48
				agg, err := s.AggregateInto(nil, sigs[lo:lo+16])
				if err != nil {
					errs <- err
					return
				}
				jobs := []sigagg.VerifyJob{{Digests: digests[lo : lo+16], Agg: agg}}
				if err := s.VerifyJobs(pub, jobs); err != nil {
					errs <- err
					return
				}
				if _, err := s.Sign(priv, digests[(g+i)%64]); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.VerifyStats()
	if st.H2CCacheHits == 0 {
		t.Fatalf("no hash-to-curve cache hits under concurrent re-verification: %+v", st)
	}
}

// TestSigningDoesNotWarmCache pins the honesty property the benchmarks
// rely on: signing traffic must not populate the verifier's
// digest→point cache.
func TestSigningDoesNotWarmCache(t *testing.T) {
	s := New(0)
	priv, _, err := s.KeyGen(newDetRand(11))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SignBatch(priv, testDigests(32, 15)); err != nil {
		t.Fatal(err)
	}
	st := s.VerifyStats()
	if st.H2CCacheHits != 0 || st.H2CCacheMisses != 0 {
		t.Fatalf("signing touched the verify cache: %+v", st)
	}
}

// TestAddMatchesDirect: a two-operand AggregateInto is a plain fold.
// Its results must be byte-identical to crypto/elliptic's decode +
// curve.Add + encode across a bottom-up tree rebuild, identity operands must pass
// through untouched, and — being proof construction — it must leave the
// verifier's point cache alone.
func TestAddMatchesDirect(t *testing.T) {
	fold := New(0)
	direct := New(0)
	priv, _, err := fold.KeyGen(newDetRand(7))
	if err != nil {
		t.Fatal(err)
	}
	directAdd := func(agg, sig sigagg.Signature) sigagg.Signature {
		ax, ay, err := direct.decodePortable(agg)
		if err != nil {
			t.Fatal(err)
		}
		px, py, err := direct.decodePortable(sig)
		if err != nil {
			t.Fatal(err)
		}
		rx, ry := direct.addPortable(ax, ay, px, py)
		return marshalPortable(direct, rx, ry)
	}
	leaves := make([]sigagg.Signature, 16)
	for i, d := range testDigests(len(leaves), 0xAD) {
		if leaves[i], err = fold.Sign(priv, d); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 2; round++ {
		level := leaves
		for len(level) > 1 {
			next := make([]sigagg.Signature, 0, (len(level)+1)/2)
			for i := 0; i+1 < len(level); i += 2 {
				got, err := fold.AggregateInto(nil, []sigagg.Signature{level[i], level[i+1]})
				if err != nil {
					t.Fatal(err)
				}
				if want := directAdd(level[i], level[i+1]); !bytes.Equal(got, want) {
					t.Fatalf("round %d: Add diverges from direct path", round)
				}
				next = append(next, got)
			}
			if len(level)%2 == 1 {
				next = append(next, level[len(level)-1])
			}
			level = next
		}
	}
	if st := fold.VerifyStats(); st.AggCacheHits != 0 || st.AggCacheMisses != 0 {
		t.Fatalf("Add touched the verifier's point cache: %+v", st)
	}
	// Identity operands: Add(0, s) == s and Add(s, 0) == s, bytewise.
	id := fold.identity()
	for _, pair := range [][2]sigagg.Signature{{id, leaves[0]}, {leaves[0], id}} {
		got, err := fold.AggregateInto(nil, []sigagg.Signature{pair[0], pair[1]})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, leaves[0]) {
			t.Fatal("identity operand changed the sum's encoding")
		}
	}
	if got, err := fold.AggregateInto(nil, []sigagg.Signature{id, id}); err != nil || !bytes.Equal(got, id) {
		t.Fatalf("Add(0,0) = %x, err=%v", got, err)
	}
}

// TestTableKeyedOnTrapdoor is the regression test for the per-key table
// being keyed on the public point alone: after one verification under
// (X, Y, x), a key (X, Y, x+1) found the first key's cached scalar, so
// the fast path accepted what the portable path rejects. Both paths
// must give the same decision for both keys, in either order.
func TestTableKeyedOnTrapdoor(t *testing.T) {
	fast := New(0)
	portable := New(0, withPortableVerify())
	priv, pub, err := fast.KeyGen(newDetRand(12))
	if err != nil {
		t.Fatal(err)
	}
	good := pub.(*PublicKey)
	forged := &PublicKey{X: good.X, Y: good.Y, Trapdoor: new(big.Int).Add(good.Trapdoor, big.NewInt(1))}
	d := testDigests(1, 16)[0]
	sig, err := fast.Sign(priv, d)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for _, k := range []struct {
			name   string
			pub    *PublicKey
			wantOK bool
		}{{"genuine", good, true}, {"forged trapdoor", forged, false}} {
			ferr, perr := fast.Verify(k.pub, d, sig), portable.Verify(k.pub, d, sig)
			if (ferr == nil) != k.wantOK || (perr == nil) != k.wantOK {
				t.Fatalf("round %d, %s key: fast=%v portable=%v, want ok=%v", round, k.name, ferr, perr, k.wantOK)
			}
		}
	}
	if got := fast.VerifyStats().TableBuilds; got != 2 {
		t.Fatalf("TableBuilds = %d, want one per distinct key (2)", got)
	}
	// A key no KeyGen produces is an error, not a panic.
	huge := &PublicKey{X: good.X, Y: good.Y, Trapdoor: new(big.Int).Lsh(big.NewInt(1), 300)}
	if err := fast.Verify(huge, d, sig); err == nil {
		t.Fatal("oversized trapdoor accepted")
	}
}

// TestDigestKeyInjective: digests that differ only in length, or only
// in trailing zeros, or only past the 32 bytes stored verbatim, get
// different cache keys.
func TestDigestKeyInjective(t *testing.T) {
	long := make([]byte, 40)
	long2 := append(bytes.Clone(long[:39]), 1)
	seen := map[cacheKey]int{}
	for i, d := range [][]byte{nil, {0}, {0, 0}, make([]byte, 20), make([]byte, 32), make([]byte, 33), long, long2} {
		k := digestKey(d)
		if j, dup := seen[k]; dup {
			t.Fatalf("digests %d and %d share a cache key", j, i)
		}
		seen[k] = i
	}
}
