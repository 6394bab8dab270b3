package wire

import (
	"bytes"
	"testing"
)

func TestAppendEncodersMatchAndPoolRoundTrips(t *testing.T) {
	sys := system(t, 20)
	msg, err := sys.DA.Update(100, [][]byte{[]byte("pooled")}, 50)
	if err != nil {
		t.Fatal(err)
	}
	fresh := AppendUpdateMsg(nil, msg)
	buf := GetBuffer()
	pooled := AppendUpdateMsg(buf, msg)
	if !bytes.Equal(fresh, pooled) {
		t.Fatal("pooled AppendUpdateMsg differs from a fresh buffer's")
	}
	if _, err := DecodeUpdateMsg(pooled); err != nil {
		t.Fatalf("decode pooled encoding: %v", err)
	}
	PutBuffer(pooled)

	ans, err := sys.QS.Query(10, 120)
	if err != nil {
		t.Fatal(err)
	}
	freshA, err := AppendAnswer(nil, ans)
	if err != nil {
		t.Fatal(err)
	}
	buf2 := GetBuffer()
	pooledA, err := AppendAnswer(buf2, ans)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(freshA, pooledA) {
		t.Fatal("pooled AppendAnswer differs from a fresh buffer's")
	}
	got, err := DecodeAnswer(pooledA)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Chain.Records) != len(ans.Chain.Records) {
		t.Fatalf("round trip lost records: %d vs %d", len(got.Chain.Records), len(ans.Chain.Records))
	}
	PutBuffer(pooledA)

	// A recycled buffer must start empty and produce identical bytes.
	again := AppendUpdateMsg(GetBuffer(), msg)
	if !bytes.Equal(fresh, again) {
		t.Fatal("recycled buffer produced different encoding")
	}
	PutBuffer(again)
}

func BenchmarkAppendAnswerPooled(b *testing.B) {
	sys := system(b, 100)
	ans, err := sys.QS.Query(10, 500)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := AppendAnswer(GetBuffer(), ans)
		if err != nil {
			b.Fatal(err)
		}
		PutBuffer(buf)
	}
}

func BenchmarkAppendAnswerFresh(b *testing.B) {
	sys := system(b, 100)
	ans, err := sys.QS.Query(10, 500)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AppendAnswer(nil, ans); err != nil {
			b.Fatal(err)
		}
	}
}
