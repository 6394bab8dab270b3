package freshness

import (
	"errors"
	"math/rand"
	"testing"

	"authdb/internal/sigagg/xortest"
)

func BenchmarkPublish500Updates(b *testing.B) {
	scheme := xortest.New()
	priv, _, err := scheme.KeyGen(nil)
	if err != nil {
		b.Fatal(err)
	}
	p := NewPublisher(signer(scheme, priv), 1_000_000, 0)
	rng := rand.New(rand.NewSource(1))
	ts := int64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 500; j++ {
			p.MarkUpdated(rng.Intn(1_000_000))
		}
		ts += 1000
		if _, _, err := publish(p, ts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCheckFresh(b *testing.B) {
	scheme := xortest.New()
	priv, pub, err := scheme.KeyGen(nil)
	if err != nil {
		b.Fatal(err)
	}
	p := NewPublisher(signer(scheme, priv), 1_000_000, 0)
	c := NewChecker(scheme, pub)
	rng := rand.New(rand.NewSource(2))
	ts := int64(0)
	// 100 periods of history, 500 updates each — the working set a
	// logged-in user holds.
	for k := 0; k < 100; k++ {
		for j := 0; j < 500; j++ {
			p.MarkUpdated(rng.Intn(1_000_000))
		}
		ts += 1000
		s, _, err := publish(p, ts)
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Add(s); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Record certified mid-history: scans ~50 summaries. ErrStale is
		// a legitimate outcome for slots that were re-certified.
		if _, err := c.CheckFresh(rng.Intn(1_000_000), 50_000, ts+10, 1000); err != nil && !errors.Is(err, ErrStale) {
			b.Fatal(err)
		}
	}
}

func BenchmarkSummaryIngest(b *testing.B) {
	scheme := xortest.New()
	priv, pub, err := scheme.KeyGen(nil)
	if err != nil {
		b.Fatal(err)
	}
	p := NewPublisher(signer(scheme, priv), 1_000_000, 0)
	rng := rand.New(rand.NewSource(3))
	summaries := make([]Summary, b.N)
	ts := int64(0)
	for i := range summaries {
		for j := 0; j < 200; j++ {
			p.MarkUpdated(rng.Intn(1_000_000))
		}
		ts += 1000
		s, _, err := publish(p, ts)
		if err != nil {
			b.Fatal(err)
		}
		summaries[i] = s
	}
	c := NewChecker(scheme, pub)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Add(summaries[i]); err != nil {
			b.Fatal(err)
		}
	}
}

// sparseSlots is marks slots among n, ascending, one at random in each
// of marks equal strides.
func sparseSlots(n, marks int) []int {
	rng := rand.New(rand.NewSource(1))
	stride := n / marks
	slots := make([]int, marks)
	for i := range slots {
		slots[i] = i*stride + rng.Intn(stride)
	}
	return slots
}

func BenchmarkAppendSlotsSparse(b *testing.B) {
	marked := sparseSlots(1_000_000, 500)
	b.ResetTimer()
	var size int
	for i := 0; i < b.N; i++ {
		size = len(appendSlots(nil, 1_000_000, marked))
	}
	b.ReportMetric(float64(size), "bytes")
}

func BenchmarkDecodeSlotsSparse(b *testing.B) {
	data := appendSlots(nil, 1_000_000, sparseSlots(1_000_000, 500))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := decodeSlots(data); err != nil {
			b.Fatal(err)
		}
	}
}
