package crsa

import (
	"crypto/rand"
	"math/big"
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
	bound, err := s.Bind(pub)
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
	if _, err := s.Aggregate(nil); err != nil {
		t.Fatalf("empty aggregate: %v", err)
	}
	if _, err := s.Aggregate(make([]sigagg.Signature, 2)); err == nil {
		t.Fatal("unbound non-empty Aggregate must fail")
	}
	if _, err := s.Add(nil, nil); err == nil {
		t.Fatal("unbound Add must fail")
	}
	if _, err := s.Remove(nil, nil); err == nil {
		t.Fatal("unbound Remove must fail")
	}
}

// TestUnboundAggregateIntoRejected: the batch form of Aggregate needs the
// modulus just the same, and says so with Aggregate's error.
func TestUnboundAggregateIntoRejected(t *testing.T) {
	s := New(1024)
	sigs := make([]sigagg.Signature, 2)
	_, want := s.Aggregate(sigs)
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
	if _, err := s.Bind(fakePub{}); err == nil {
		t.Fatal("foreign public key accepted")
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
