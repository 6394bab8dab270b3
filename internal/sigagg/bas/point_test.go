package bas

import (
	"bytes"
	"crypto/elliptic"
	"encoding/hex"
	"math/big"
	"testing"

	"authdb/internal/sigagg"
)

// Point arithmetic, decompression and hash-to-curve against
// crypto/elliptic, plus golden vectors pinning the bytes the math/big
// implementation produced and the allocation-free guarantee.

// randAffine returns k·G for a random k, in both representations.
func randAffine(s *Scheme, rnd *detRand) (*affPoint, *big.Int, *big.Int) {
	var k [32]byte
	rnd.Read(k[:])
	x, y := s.curve.ScalarBaseMult(k[:])
	return affFromBig(x, y), x, y
}

// TestJacobianMatchesCurve drives the Jacobian formulas through a
// random add/double chain and checks every intermediate against
// crypto/elliptic's affine arithmetic.
func TestJacobianMatchesCurve(t *testing.T) {
	s := New(0)
	rnd := newDetRand(2)
	start, kx, ky := randAffine(s, rnd)
	var j jacPoint
	j.setAffine(start)
	for step := 0; step < 200; step++ {
		if step%3 == 2 {
			j.double()
			kx, ky = s.curve.Double(kx, ky)
		} else {
			p, px, py := randAffine(s, rnd)
			j.mixedAdd(p)
			kx, ky = s.curve.Add(kx, ky, px, py)
		}
		if !j.equalsBig(kx, ky) {
			t.Fatalf("step %d: jacobian walk diverged from crypto/elliptic", step)
		}
		var a affPoint
		if !j.toAffine(&a) || feToBig(&a.x).Cmp(kx) != 0 || feToBig(&a.y).Cmp(ky) != 0 {
			t.Fatalf("step %d: toAffine disagrees with equalsAffine", step)
		}
	}
}

// TestPointSpecialCases covers the branches the formulas cannot reach
// by themselves: P+P, P+(−P) and infinity on either side, for the
// mixed and the full addition, and doubling infinity.
func TestPointSpecialCases(t *testing.T) {
	s := New(0)
	rnd := newDetRand(3)
	a, ax, ay := randAffine(s, rnd)
	b, bx, by := randAffine(s, rnd)
	neg := *a
	feNeg(&neg.y, &neg.y)
	dx, dy := s.curve.Double(ax, ay)

	var j, o jacPoint
	j.setAffine(a)
	j.mixedAdd(a)
	if !j.equalsBig(dx, dy) {
		t.Error("mixedAdd: P + P != 2P")
	}
	j.setAffine(a)
	j.mixedAdd(&neg)
	if !j.isInfinity() {
		t.Error("mixedAdd: P + (−P) != ∞")
	}
	j.mixedAdd(b)
	if !j.equalsBig(bx, by) {
		t.Error("mixedAdd: ∞ + P != P")
	}
	j.setInfinity()
	j.double()
	if !j.isInfinity() {
		t.Error("double: 2∞ != ∞")
	}
	if j.toAffine(&neg) || j.equalsAffine(a) {
		t.Error("∞ has an affine form")
	}

	// addJac with both operands off Z = 1: 2a + 2b, 2a + 2a, 2a + (−2a).
	wx, wy := s.curve.Double(bx, by)
	wx, wy = s.curve.Add(dx, dy, wx, wy)
	j.setAffine(a)
	j.double()
	o.setAffine(b)
	o.double()
	j.addJac(&o)
	if !j.equalsBig(wx, wy) {
		t.Error("addJac diverges from curve.Add")
	}
	j.setAffine(a)
	j.double()
	o.setAffine(a)
	o.mixedAdd(a) // the same point by another route: a different Z
	j.addJac(&o)
	if qx, qy := s.curve.Double(dx, dy); !j.equalsBig(qx, qy) {
		t.Error("addJac: same-point case diverges from curve.Double")
	}
	j.setAffine(a)
	j.double()
	feNeg(&o.y, &o.y)
	j.addJac(&o)
	if !j.isInfinity() {
		t.Error("addJac: 2P + (−2P) != ∞")
	}
	o.setAffine(b)
	j.addJac(&o)
	if !j.equalsBig(bx, by) {
		t.Error("addJac: ∞ + P != P")
	}
	o.setInfinity()
	j.addJac(&o)
	if !j.equalsBig(bx, by) {
		t.Error("addJac: P + ∞ != P")
	}
}

// TestWNAFMatchesScalarMult runs k·P for edge and random scalars — each
// a chain of ~256 doublings and ~45 additions on one accumulator — and
// checks the result against curve.ScalarMult.
func TestWNAFMatchesScalarMult(t *testing.T) {
	s := New(0)
	params := s.curve.Params()
	rnd := newDetRand(4)
	p, px, py := randAffine(s, rnd)
	scalars := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(31), big.NewInt(32),
		new(big.Int).Sub(params.N, big.NewInt(1)),
		new(big.Int).Rsh(params.N, 1),
	}
	for i := 0; i < 20; i++ {
		var buf [32]byte
		rnd.Read(buf[:])
		k := new(big.Int).SetBytes(buf[:])
		scalars = append(scalars, k.Mod(k, params.N))
	}
	var base, inf jacPoint
	base.setAffine(p)
	for _, k := range scalars {
		naf := wnafRecode(k, wnafWindow)
		// The digits evaluate back to k, are odd or zero, and fit the window.
		back := new(big.Int)
		for i := len(naf) - 1; i >= 0; i-- {
			back.Lsh(back, 1).Add(back, big.NewInt(int64(naf[i])))
			if d := naf[i]; d != 0 && (d%2 == 0 || d > 31 || d < -31) {
				t.Fatalf("invalid wNAF digit %d", d)
			}
		}
		if back.Cmp(k) != 0 {
			t.Fatalf("wNAF round trip: got %v want %v", back, k)
		}
		var j jacPoint
		wnafMul(&j, naf, &base)
		if !j.equalsBig(s.curve.ScalarMult(px, py, k.Bytes())) {
			t.Fatalf("wnafMul(%v) diverges from curve.ScalarMult", k)
		}
		wnafMul(&j, naf, &inf)
		if !j.isInfinity() {
			t.Fatalf("k·∞ != ∞")
		}
	}
}

// checkDecompress holds decompress to elliptic.UnmarshalCompressed on
// one encoding: same accept/reject, same point, and compress inverts it.
func checkDecompress(t *testing.T, s *Scheme, enc []byte) (valid bool) {
	t.Helper()
	wx, wy := elliptic.UnmarshalCompressed(s.curve, enc)
	var a affPoint
	ok := decompress(&a, enc)
	if ok != (wx != nil) {
		t.Fatalf("decompress(%x) accepted=%v, elliptic.UnmarshalCompressed accepted=%v", enc, ok, wx != nil)
	}
	if !ok {
		return false
	}
	if x, y := feToBig(&a.x), feToBig(&a.y); x.Cmp(wx) != 0 || y.Cmp(wy) != 0 {
		t.Fatalf("decompress(%x) = (%x, %x), elliptic says (%x, %x)", enc, x, y, wx, wy)
	}
	var re [pointLen]byte
	compress(re[:], &a)
	if !bytes.Equal(re[:], enc) {
		t.Fatalf("compress(decompress(%x)) = %x", enc, re)
	}
	return true
}

func TestDecompressMatchesElliptic(t *testing.T) {
	s := New(0)
	rnd := newDetRand(5)

	// Valid encodings, and each with the other parity tag: also valid,
	// the negated point.
	for i := 0; i < 100; i++ {
		_, x, y := randAffine(s, rnd)
		enc := elliptic.MarshalCompressed(s.curve, x, y)
		if !checkDecompress(t, s, enc) {
			t.Fatalf("valid encoding %x rejected", enc)
		}
		enc[0] ^= 1
		if !checkDecompress(t, s, enc) {
			t.Fatalf("valid encoding %x rejected", enc)
		}
	}

	invalid := func(why string, enc []byte) {
		t.Helper()
		if checkDecompress(t, s, enc) {
			t.Errorf("%s: %x accepted", why, enc)
		}
	}
	_, gx, gy := randAffine(s, rnd)
	good := elliptic.MarshalCompressed(s.curve, gx, gy)

	// Bad tags: everything but 02 and 03, including the uncompressed 04
	// and the infinity 00.
	for _, tag := range []byte{0x00, 0x01, 0x04, 0x05, 0x06, 0x07, 0x82, 0xff} {
		enc := bytes.Clone(good)
		enc[0] = tag
		invalid("bad tag", enc)
	}
	// Wrong lengths.
	invalid("empty", nil)
	invalid("truncated", good[:32])
	invalid("tag only", good[:1])
	invalid("overlong", append(bytes.Clone(good), 0))
	invalid("uncompressed", elliptic.Marshal(s.curve, gx, gy))
	// x ≥ p; below, also values whose reduction mod p is a fine
	// x-coordinate.
	withX := func(x *big.Int) []byte {
		enc := make([]byte, pointLen)
		enc[0] = 2
		x.FillBytes(enc[1:])
		return enc
	}
	invalid("x = p", withX(p256P))
	invalid("x = 2²⁵⁶−1", withX(new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))))
	// Non-residues: about half of the small x-coordinates are not on the
	// curve. Each one that is must stop being accepted once p is added.
	rejected := 0
	for x := int64(0); x < 64; x++ {
		if !checkDecompress(t, s, withX(big.NewInt(x))) {
			rejected++
			continue
		}
		invalid("x = p + valid x", withX(new(big.Int).Add(p256P, big.NewInt(x))))
	}
	if rejected < 16 || rejected > 48 {
		t.Errorf("%d of 64 small x rejected; about half should be", rejected)
	}
}

// TestGoldenVectors pins hash-to-curve outputs, signatures and
// aggregates to the bytes the math/big implementation produced (key
// from newDetRand(42); recorded at the commit before the limb kernel).
// A kernel that was merely self-consistent would still fail here.
func TestGoldenVectors(t *testing.T) {
	unhex := func(h string) []byte {
		b, err := hex.DecodeString(h)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	s := New(0)
	priv, pub, err := s.KeyGen(newDetRand(42))
	if err != nil {
		t.Fatal(err)
	}
	pk := pub.(*PublicKey)
	if got := hex.EncodeToString(pk.X.FillBytes(make([]byte, 32))); got != "06164e5fcbfcad76d3d941375dacf856793eff2da0b5e8c61c9bc325253bf6c7" {
		t.Fatalf("public key X = %s: key generation changed, the vectors below no longer apply", got)
	}
	vectors := []struct{ digest, hx, hy, sig string }{
		{"b409fc656ac9bbc7cf4d95e093552559f2438c28057de5ddb587b6e5247b72ed",
			"247f46631e8395e491a4b7db0a6cdb04ffe4be33947042210337f74ec277912c",
			"b4590350a070b61c5f585fe793307d46fa4263317ff159e1fe623eab8350f6f7",
			"033b3d682aa7e3713cb90e16fac18322e0746f92a3165a827cac4a1b42481cbe7b"},
		{"d5a491bd9f1e46ed65f18fafa84905afa23fe4ac5489aac1a8aa25e43ee5ea4e",
			"e4a45e94faf7db31a551362f8cc46e48466f3292d5e5768a96a7541983a3baf0",
			"3a826a37f219d8a18da875dd8d9233693253a323d6bd412f5e56b278eb89bfa1",
			"0313de4de86dfe499432d343816f0098a5c30db1eadf2b87027b99df67c2eb9316"},
		{"5c74fb8b8ada2c66ea64ba744d673282ef505b5eb90b8374437ec62422689575",
			"ec803a8e5bda787048b7217f1002d54b449606522028384e5ed871481a5cb12e",
			"575493a207f32a2a8dbf8be27b3aeeaf37e76e544cd3a3b0fa497ac2371c4d3a",
			"03c8aa1869638887817f8abedb2023305e700d8af0494dc9cf2655fbe552077aa7"},
		{"0b1695b4c2e4eb103e316c9d74630ea0c48f84e335bf1cbeaee1731099ad8f5e",
			"32ef2625cb0b4e91c75b52e28619e7ce78643910e739c874c8f208b7c0487399",
			"e9a2a8fa8ddc920d85ba66d9f27a1c8db63f39c5cee7987026211a9a1c84eb87",
			"0260370c1191cf110a1d14bd1d0ceadde95f6a35dc904d927df979b2d772488db5"},
		{"", // empty digest
			"9660bd800a7566af46159f15b416ad29563be44ab5ea808d4ec450813615da9d",
			"a77c2d56e81bd06189e35dcf3ec6c624d97b97489911eecd98f58882c3d34671",
			"0271670d7f74aa84f233c228c42ce298482907631077542cea15c18baea54277d8"},
		{"646967657374", // "digest"
			"2e25679311e00c95a28f100de5493be194d353494de6d38e2c70da3f9668ca0c",
			"59bf5376741178cabbd134662ad7050081f8a835d86da4db1aba2cca6a21c43f",
			"034e2b8ad88f07ad615b77ad6ff170074585133bcdcad435bda49f61480755f1a2"},
		{"61206469676573742074686174206973206c6f6e676572207468616e207468697274792d74776f2062797465732c20746f20636f76657220746865206861736865642d646f776e206b65792070617468",
			"ccda2c5f20b00fa340b1b92d90b03622fe782c11bf7436a6a92466468dab272d",
			"13ccb7496f10218bab615483bc5478cb41349c41d01281b3c153760d99b99928",
			"03c2aa4827962dc4622065f5a74670a9c94481a6e9cda597f49d12d978c7757f00"},
	}
	const (
		wantAgg    = "02dc5ce3b2c7be7c52c466fec0e19d6419ab9df64c38946a9341cb9873c3b5106d"
		wantRemove = "037b432968b73e040874b63721fe2c80d82fc60ce4977d2ef10634e11d228b3655" // agg − sig[0]
	)
	var (
		msg     []byte
		digests [][]byte
		sigs    []sigagg.Signature
	)
	for i, v := range vectors {
		d := unhex(v.digest)
		var h affPoint
		hashToCurve(&h, &msg, d)
		var hb [64]byte
		feBytes(hb[:32], &h.x)
		feBytes(hb[32:], &h.y)
		if got := hex.EncodeToString(hb[:]); got != v.hx+v.hy {
			t.Errorf("vector %d: H(d) = %s, want %s%s", i, got, v.hx, v.hy)
		}
		sig, err := s.Sign(priv, d)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(sig); got != v.sig {
			t.Errorf("vector %d: signature = %s, want %s", i, got, v.sig)
		}
		if err := s.Verify(pub, d, sig); err != nil {
			t.Errorf("vector %d: %v", i, err)
		}
		digests, sigs = append(digests, d), append(sigs, sig)
	}
	batch, err := s.SignBatch(priv, digests)
	if err != nil {
		t.Fatal(err)
	}
	for i := range batch {
		if !bytes.Equal(batch[i], sigs[i]) {
			t.Errorf("vector %d: SignBatch = %x, Sign = %x", i, batch[i], sigs[i])
		}
	}
	agg, err := s.AggregateInto(nil, sigs)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(agg); got != wantAgg {
		t.Errorf("Aggregate = %s, want %s", got, wantAgg)
	}
	chained := s.identity()
	for _, sig := range sigs {
		if chained, err = s.AggregateInto(nil, []sigagg.Signature{chained, sig}); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(chained, agg) {
		t.Errorf("chained two-operand AggregateInto = %x, want %x", chained, agg)
	}
	rem, err := s.Remove(agg, sigs[0])
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(rem); got != wantRemove {
		t.Errorf("Remove = %s, want %s", got, wantRemove)
	}
}

// TestKernelAllocatesNothing: the point operations and the whole warm
// summation of a batch — every digest and aggregate a cache hit — stay
// off the heap. The closing ScalarMult is outside: crypto/elliptic
// takes and returns big.Ints.
func TestKernelAllocatesNothing(t *testing.T) {
	s := New(0)
	rnd := newDetRand(6)
	a, _, _ := randAffine(s, rnd)
	b, _, _ := randAffine(s, rnd)
	var j, o jacPoint
	j.setAffine(a)
	o.setAffine(b)
	o.double()
	for name, fn := range map[string]func(){
		"mixedAdd": func() { j.mixedAdd(b) },
		"addJac":   func() { j.addJac(&o) },
		"double":   func() { j.double() },
		"toAffine": func() { j.toAffine(a) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", name, n)
		}
	}

	_, jobs := warmJobs(t, s)
	sc := s.scratch.Get().(*verifyScratch)
	defer s.scratch.Put(sc)
	before := s.VerifyStats()
	n := testing.AllocsPerRun(20, func() {
		if _, err := s.sumJobs(sc, jobs); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("warm sumJobs (8 jobs × 50 digests): %v allocs per run, want 0", n)
	}
	if after := s.VerifyStats(); after.H2CCacheMisses != before.H2CCacheMisses {
		t.Errorf("the batch was not warm: %+v -> %+v", before, after)
	}
}
