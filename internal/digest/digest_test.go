package digest

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestSumDeterministic(t *testing.T) {
	a := Sum([]byte("hello"))
	b := Sum([]byte("hello"))
	if a != b {
		t.Fatalf("Sum not deterministic: %x vs %x", a, b)
	}
}

func TestSumDistinct(t *testing.T) {
	if Sum([]byte("hello")) == Sum([]byte("world")) {
		t.Fatal("distinct messages hashed equal")
	}
}

func TestSumSize(t *testing.T) {
	d := Sum([]byte("x"))
	if len(d) != Size || Size != 20 {
		t.Fatalf("digest size = %d, want 20", len(d))
	}
}

func TestSumConcatFraming(t *testing.T) {
	// ("ab","c") must differ from ("a","bc") — raw concatenation would
	// collide.
	a := SumConcat([]byte("ab"), []byte("c"))
	b := SumConcat([]byte("a"), []byte("bc"))
	if a == b {
		t.Fatal("SumConcat framing is ambiguous")
	}
}

func TestSumConcatEmptyParts(t *testing.T) {
	a := SumConcat()
	b := SumConcat([]byte{})
	if a == b {
		t.Fatal("zero parts vs one empty part must differ")
	}
}

func TestWriterCanonical(t *testing.T) {
	w1 := NewWriter(0)
	w1.PutUint64(7)
	w1.PutBytes([]byte("abc"))
	w2 := NewWriter(64)
	w2.PutUint64(7)
	w2.PutBytes([]byte("abc"))
	if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
		t.Fatal("identical field sequences must serialize identically")
	}
	if w1.Sum() != w2.Sum() {
		t.Fatal("identical field sequences must hash identically")
	}
}

func TestWriterFieldBoundaries(t *testing.T) {
	// PutBytes("ab") then PutBytes("c") must differ from
	// PutBytes("a") then PutBytes("bc").
	w1 := NewWriter(0)
	w1.PutBytes([]byte("ab"))
	w1.PutBytes([]byte("c"))
	w2 := NewWriter(0)
	w2.PutBytes([]byte("a"))
	w2.PutBytes([]byte("bc"))
	if w1.Sum() == w2.Sum() {
		t.Fatal("Writer field framing is ambiguous")
	}
}

func TestWriterInt64(t *testing.T) {
	w := NewWriter(0)
	w.PutInt64(-1)
	w.PutInt64(1)
	if len(w.Bytes()) != 16 {
		t.Fatalf("PutInt64 must be fixed-width: got %d bytes", len(w.Bytes()))
	}
}

func TestWriterDigest(t *testing.T) {
	d := Sum([]byte("d"))
	w := NewWriter(0)
	w.PutDigest(d)
	if !bytes.Equal(w.Bytes(), d[:]) {
		t.Fatal("PutDigest must append raw digest bytes")
	}
}

func TestQuickSumInjectiveish(t *testing.T) {
	// Property: distinct inputs (as generated) never collide.
	f := func(a, b []byte) bool {
		if bytes.Equal(a, b) {
			return Sum(a) == Sum(b)
		}
		return Sum(a) != Sum(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
