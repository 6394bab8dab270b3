package xortest

import (
	"crypto/rand"
	"testing"

	"authdb/internal/digest"
	"authdb/internal/sigagg"
)

func TestRoundTrip(t *testing.T) {
	s := New()
	priv, pub, err := s.KeyGen(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	var sigs []sigagg.Signature
	var ds [][]byte
	for i := 0; i < 5; i++ {
		d := digest.Sum([]byte{byte(i)})
		ds = append(ds, d[:])
		sig, err := s.Sign(priv, d[:])
		if err != nil {
			t.Fatal(err)
		}
		sigs = append(sigs, sig)
	}
	agg, err := s.AggregateInto(nil, sigs)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AggregateVerify(pub, ds, agg); err != nil {
		t.Fatalf("AggregateVerify: %v", err)
	}
	if err := s.AggregateVerify(pub, ds[:4], agg); err == nil {
		t.Fatal("subset verified")
	}
}

func TestRemoveIsInverse(t *testing.T) {
	s := New()
	priv, _, _ := s.KeyGen(rand.Reader)
	d1 := digest.Sum([]byte("a"))
	d2 := digest.Sum([]byte("b"))
	s1, _ := s.Sign(priv, d1[:])
	s2, _ := s.Sign(priv, d2[:])
	agg, _ := s.AggregateInto(nil, []sigagg.Signature{s1, s2})
	back, _ := s.Remove(agg, s2)
	if string(back) != string(s1) {
		t.Fatal("Remove is not the inverse of Add")
	}
}

func TestBadInputs(t *testing.T) {
	s := New()
	if _, err := s.AggregateInto(nil, []sigagg.Signature{make(sigagg.Signature, 3)}); err == nil {
		t.Fatal("short signature accepted")
	}
	if _, err := s.Sign(nil, nil); err == nil {
		t.Fatal("nil key accepted")
	}
	if err := s.AggregateVerify(nil, nil, make(sigagg.Signature, SigSize)); err == nil {
		t.Fatal("nil public key accepted")
	}
}

func TestDifferentKeysDiffer(t *testing.T) {
	s := New()
	p1, _, _ := s.KeyGen(rand.Reader)
	p2, _, _ := s.KeyGen(rand.Reader)
	d := digest.Sum([]byte("m"))
	s1, _ := s.Sign(p1, d[:])
	s2, _ := s.Sign(p2, d[:])
	if string(s1) == string(s2) {
		t.Fatal("independent keys produced identical signatures")
	}
}
