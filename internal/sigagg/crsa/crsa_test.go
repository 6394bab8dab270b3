package crsa

import (
	"bytes"
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"strings"
	"testing"

	"authdb/internal/digest"
	"authdb/internal/sigagg"
)

func keyed(t *testing.T) (*Scheme, sigagg.Scheme, sigagg.PrivateKey, sigagg.PublicKey) {
	t.Helper()
	s := New(1024)
	priv, pub, err := s.KeyGen(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := sigagg.Bind(s, pub)
	if err != nil {
		t.Fatal(err)
	}
	return s, bound, priv, pub
}

func TestFDHInRange(t *testing.T) {
	n := new(big.Int).Lsh(big.NewInt(1), 1024)
	n.Sub(n, big.NewInt(12345))
	for i := 0; i < 20; i++ {
		d := digest.Sum([]byte{byte(i)})
		v := fdh(d[:], n)
		if v.Sign() <= 0 || v.Cmp(n) >= 0 {
			t.Fatalf("FDH out of range at %d", i)
		}
	}
}

func TestFDHDeterministicAndSpread(t *testing.T) {
	n := new(big.Int).Lsh(big.NewInt(1), 1024)
	d := digest.Sum([]byte("m"))
	if fdh(d[:], n).Cmp(fdh(d[:], n)) != 0 {
		t.Fatal("FDH not deterministic")
	}
	d2 := digest.Sum([]byte("m2"))
	if fdh(d[:], n).Cmp(fdh(d2[:], n)) == 0 {
		t.Fatal("FDH collision")
	}
	// Full domain: outputs should use high bits sometimes.
	high := false
	for i := 0; i < 16; i++ {
		d := digest.Sum([]byte{byte(i), 0xAA})
		if fdh(d[:], n).BitLen() > 1000 {
			high = true
		}
	}
	if !high {
		t.Fatal("FDH never produces high-bit outputs; not full-domain")
	}
}

func TestUnboundAggregationRejected(t *testing.T) {
	s := New(1024)
	// The empty aggregate is the modulus-independent identity and is
	// allowed even unbound; anything else needs the signer modulus.
	if _, err := s.AggregateInto(nil, nil); err != nil {
		t.Fatalf("empty aggregate: %v", err)
	}
	if _, err := s.AggregateInto(nil, make([]sigagg.Signature, 2)); err == nil {
		t.Fatal("unbound non-empty aggregation must fail")
	}
}

// TestUnboundAggregateIntoRejected: with a destination buffer or
// without, unbound aggregation fails the same way, naming the modulus.
func TestUnboundAggregateIntoRejected(t *testing.T) {
	s := New(1024)
	sigs := make([]sigagg.Signature, 2)
	_, want := s.AggregateInto(nil, sigs)
	_, err := s.AggregateInto(make(sigagg.Signature, 0, 128), sigs)
	if err == nil || want == nil || err.Error() != want.Error() || !strings.Contains(err.Error(), "requires the signer modulus") {
		t.Fatalf("unbound AggregateInto: %v, want %v", err, want)
	}
}

func TestSignatureSize(t *testing.T) {
	if New(1024).SignatureSize() != 128 {
		t.Fatal("1024-bit signature must be 128 bytes")
	}
	if New(2048).SignatureSize() != 256 {
		t.Fatal("2048-bit signature must be 256 bytes")
	}
}

func TestAggregateVerifyRejectsOutOfRange(t *testing.T) {
	_, bound, priv, pub := keyed(t)
	d := digest.Sum([]byte("m"))
	sig, _ := bound.Sign(priv, d[:])
	// An aggregate >= n is malformed.
	huge := make(sigagg.Signature, len(sig))
	for i := range huge {
		huge[i] = 0xFF
	}
	if err := bound.Verify(pub, d[:], huge); err == nil {
		t.Fatal("out-of-range aggregate accepted")
	}
}

func TestBindRejectsForeignKey(t *testing.T) {
	s := New(1024)
	if _, err := sigagg.Bind(s, fakePub{}); err == nil {
		t.Fatal("foreign public key accepted")
	}
}

// TestBindingRoundTrip: a scheme bound from a key reports the modulus as
// its binding, BindTo rebuilds an equal scheme from that binding alone,
// and a parameter that is not a modulus of the scheme's size is refused.
func TestBindingRoundTrip(t *testing.T) {
	s, bound, priv, pub := keyed(t)
	bd := sigagg.BindingOf(bound)
	if bd.Scheme != "crsa" || !bytes.Equal(bd.Param, pub.(*PublicKey).N.Bytes()) {
		t.Fatalf("binding %q with a %d-byte parameter, want the modulus", bd.Scheme, len(bd.Param))
	}
	rebound, err := sigagg.BindTo(New(1024), bd)
	if err != nil {
		t.Fatal(err)
	}
	if !sigagg.BindingOf(rebound).Equal(bd) {
		t.Fatal("a scheme bound from a binding reports another")
	}
	d1, d2 := digest.Sum([]byte("a")), digest.Sum([]byte("b"))
	sigs, err := s.SignBatch(priv, [][]byte{d1[:], d2[:]})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := bound.AggregateInto(nil, sigs)
	if got, err := rebound.AggregateInto(nil, sigs); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("aggregate under the rebuilt binding differs (err %v)", err)
	}
	for name, param := range map[string][]byte{
		"empty":        nil,
		"leading zero": append([]byte{0}, bd.Param[1:]...),
		"even":         append(append([]byte(nil), bd.Param[:len(bd.Param)-1]...), bd.Param[len(bd.Param)-1]&^1),
		"other size":   bd.Param[1:],
	} {
		if _, err := s.Bind(param); err == nil {
			t.Errorf("%s binding parameter accepted", name)
		}
	}
	if _, err := sigagg.BindTo(s, sigagg.Binding{Scheme: "bas", Param: bd.Param}); err == nil {
		t.Error("a binding naming another scheme accepted")
	}
}

// TestKeyGenReproducible: two readers with the same seed give the same
// key pair, so the demo's deterministic keys are the same in every
// process that derives them.
func TestKeyGenReproducible(t *testing.T) {
	s := New(1024)
	keyFrom := func(seed int64) *PublicKey {
		priv, pub, err := s.KeyGen(mrand.New(mrand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if k := priv.(*PrivateKey).key; k.Validate() != nil || k.Precomputed.Dp == nil {
			t.Fatalf("key invalid (%v) or without its CRT values", k.Validate())
		}
		return pub.(*PublicKey)
	}
	a, b, c := keyFrom(7), keyFrom(7), keyFrom(8)
	if a.N.Cmp(b.N) != 0 || a.E != b.E {
		t.Fatal("the same seed gave two moduli")
	}
	if a.N.Cmp(c.N) == 0 {
		t.Fatal("two seeds gave one modulus")
	}
}

type fakePub struct{}

func (fakePub) SchemeName() string { return "fake" }

func TestRemoveNonInvertible(t *testing.T) {
	_, bound, _, pub := keyed(t)
	b := bound.(*Bound)
	_ = pub
	zero := make(sigagg.Signature, b.SignatureSize())
	one := make(sigagg.Signature, b.SignatureSize())
	one[len(one)-1] = 1
	if _, err := b.Remove(one, zero); err == nil {
		t.Fatal("removing zero signature must fail (not invertible)")
	}
}

func TestKeyGenBits(t *testing.T) {
	s := New(1024)
	_, pub, err := s.KeyGen(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	n := pub.(*PublicKey).N
	if n.BitLen() != 1024 {
		t.Fatalf("modulus has %d bits", n.BitLen())
	}
}
