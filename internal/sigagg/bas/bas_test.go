package bas

import (
	"crypto/rand"
	"errors"
	"testing"
	"time"

	"authdb/internal/digest"
	"authdb/internal/sigagg"
)

// identity is the encoding of the point at infinity, the empty
// aggregate.
func (s *Scheme) identity() sigagg.Signature {
	return make(sigagg.Signature, s.SignatureSize())
}

// TestHashToCurveMatchesPortable: the kernel's try-and-increment map
// lands on the curve and on the very point the math/big original picks
// (same candidate, same one of the two roots), for 32-byte digests and
// for the odd lengths the cache hashes down.
func TestHashToCurveMatchesPortable(t *testing.T) {
	s := New(0)
	var msg []byte
	for i := 0; i < 200; i++ {
		d := digest.Sum([]byte{byte(i), byte(i >> 4)})
		in := d[:]
		if i%5 == 4 {
			in = d[:i%len(d)] // short, including empty
		}
		var h affPoint
		hashToCurve(&h, &msg, in)
		x, y := feToBig(&h.x), feToBig(&h.y)
		if !s.curve.IsOnCurve(x, y) {
			t.Fatalf("hashToCurve output %d not on P-256", i)
		}
		if wx, wy := s.hashToCurvePortable(in); x.Cmp(wx) != 0 || y.Cmp(wy) != 0 {
			t.Fatalf("hashToCurve(%x) = (%x, %x), math/big original says (%x, %x)", in, x, y, wx, wy)
		}
	}
}

func TestIdentityEncoding(t *testing.T) {
	s := New(0)
	id := s.identity()
	if !s.isIdentity(id) {
		t.Fatal("identity not recognized")
	}
	var pt affPoint
	if identity, err := s.decode(&pt, id); err != nil || !identity {
		t.Fatalf("identity decode: identity=%v err=%v", identity, err)
	}
}

func TestRemoveToIdentity(t *testing.T) {
	s := New(0)
	priv, _, err := s.KeyGen(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	d := digest.Sum([]byte("x"))
	sig, _ := s.Sign(priv, d[:])
	empty, err := s.Remove(sig, sig)
	if err != nil {
		t.Fatal(err)
	}
	if !s.isIdentity(empty) {
		t.Fatalf("sig - sig != identity: %x", empty)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	s := New(0)
	var pt affPoint
	if _, err := s.decode(&pt, make(sigagg.Signature, 5)); !errors.Is(err, sigagg.ErrBadSignature) {
		t.Fatalf("short signature: %v", err)
	}
	bad := make(sigagg.Signature, s.SignatureSize())
	bad[0] = 0x07 // no such tag
	bad[5] = 0xFF
	if _, err := s.decode(&pt, bad); !errors.Is(err, sigagg.ErrBadSignature) {
		t.Fatalf("invalid point encoding: %v", err)
	}
}

func TestPairingCostSlowsVerification(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	fast := New(0)
	slow := New(DefaultPairingCost)
	priv, pub, err := slow.KeyGen(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	d := digest.Sum([]byte("m"))
	sig, _ := slow.Sign(priv, d[:])

	start := time.Now()
	for i := 0; i < 5; i++ {
		if err := fast.Verify(pub, d[:], sig); err != nil {
			t.Fatal(err)
		}
	}
	fastDur := time.Since(start)
	start = time.Now()
	for i := 0; i < 5; i++ {
		if err := slow.Verify(pub, d[:], sig); err != nil {
			t.Fatal(err)
		}
	}
	slowDur := time.Since(start)
	if slowDur < 2*fastDur {
		t.Fatalf("pairing cost model ineffective: fast=%v slow=%v", fastDur, slowDur)
	}
}

func TestKeyGenRejectsBrokenRand(t *testing.T) {
	s := New(0)
	if _, _, err := s.KeyGen(brokenReader{}); err == nil {
		t.Fatal("broken rand accepted")
	}
}

type brokenReader struct{}

func (brokenReader) Read([]byte) (int, error) { return 0, errBroken }

var errBroken = errorString("broken")

type errorString string

func (e errorString) Error() string { return string(e) }

func TestPublicPointMatchesTrapdoor(t *testing.T) {
	s := New(0)
	priv, pubI, _ := s.KeyGen(rand.Reader)
	pub := pubI.(*PublicKey)
	px, py := s.curve.ScalarBaseMult(priv.(*PrivateKey).x.Bytes())
	if px.Cmp(pub.X) != 0 || py.Cmp(pub.Y) != 0 {
		t.Fatal("public point is not x·G")
	}
	if pub.Trapdoor.Cmp(priv.(*PrivateKey).x) != 0 {
		t.Fatal("trapdoor must equal the secret scalar (documented simulation)")
	}
}
