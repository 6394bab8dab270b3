package bas

import (
	"testing"

	"authdb/internal/sigagg"
)

// Microbenchmarks of the verification kernel, bottom up. Run with
//
//	go test -run '^$' -bench 'Field|MixedAdd|Decompress|VerifyJobsWarm' -benchmem ./internal/sigagg/bas

var (
	sinkFe  fe
	sinkJac jacPoint
	sinkAff affPoint
)

func benchPoints(b *testing.B, n int) []affPoint {
	b.Helper()
	pts := make([]affPoint, n)
	var msg []byte
	for i, d := range testDigests(n, 0xB0) {
		hashToCurve(&pts[i], &msg, d)
	}
	return pts
}

func BenchmarkFieldMul(b *testing.B) {
	pts := benchPoints(b, 1)
	x, y := pts[0].x, pts[0].y
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feMul(&x, &x, &y)
	}
	sinkFe = x
}

func BenchmarkFieldSqr(b *testing.B) {
	x := benchPoints(b, 1)[0].x
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feSqr(&x, &x)
	}
	sinkFe = x
}

func BenchmarkFieldInv(b *testing.B) {
	x := benchPoints(b, 1)[0].x
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feInv(&x, &x)
	}
	sinkFe = x
}

func BenchmarkMixedAdd(b *testing.B) {
	pts := benchPoints(b, 64)
	var j jacPoint
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j.mixedAdd(&pts[i%64])
	}
	sinkJac = j
}

func BenchmarkDecompress(b *testing.B) {
	pts := benchPoints(b, 64)
	encs := make([][pointLen]byte, len(pts))
	for i := range pts {
		compress(encs[i][:], &pts[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !decompress(&sinkAff, encs[i%64][:]) {
			b.Fatal("valid point rejected")
		}
	}
}

func BenchmarkHashToCurve(b *testing.B) {
	ds := testDigests(256, 3)
	var msg []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hashToCurve(&sinkAff, &msg, ds[i%256])
	}
}

func BenchmarkWNAFMul(b *testing.B) {
	s := New(0)
	_, pub, _ := s.KeyGen(newDetRand(1))
	naf := wnafRecode(pub.(*PublicKey).Trapdoor, wnafWindow)
	var base jacPoint
	base.setAffine(&benchPoints(b, 1)[0])
	base.double()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wnafMul(&sinkJac, naf, &base)
	}
}

// BenchmarkScalarMultClose is the closing multiplication done the other
// way — normalize, curve.ScalarMult on the nistec backend, compare —
// kept beside BenchmarkWNAFMul so the choice between them can be
// re-measured.
func BenchmarkScalarMultClose(b *testing.B) {
	s := New(0)
	_, pub, _ := s.KeyGen(newDetRand(1))
	k := pub.(*PublicKey).Trapdoor.Bytes()
	var base jacPoint
	base.setAffine(&benchPoints(b, 1)[0])
	base.double()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var a affPoint
		base.toAffine(&a)
		ex, ey := s.curve.ScalarMult(feToBig(&a.x), feToBig(&a.y), k)
		if base.equalsBig(ex, ey) {
			b.Fatal("k·P == P")
		}
	}
}

func BenchmarkRemove(b *testing.B) {
	s := New(0)
	priv, _, _ := s.KeyGen(newDetRand(1))
	sigs, _ := s.SignBatch(priv, testDigests(64, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Remove(sigs[i%64], sigs[(i+1)%64]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAggregateInto16(b *testing.B) {
	s := New(0)
	priv, _, _ := s.KeyGen(newDetRand(1))
	sigs, _ := s.SignBatch(priv, testDigests(16, 1))
	dst := make(sigagg.Signature, pointLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.AggregateInto(dst, sigs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSign(b *testing.B) {
	s := New(0)
	priv, _, _ := s.KeyGen(newDetRand(1))
	ds := testDigests(64, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Sign(priv, ds[i%64]); err != nil {
			b.Fatal(err)
		}
	}
}

// warmJobs returns the benchmark spine's batch shape — 8 jobs of 50
// digests — verified once so both caches are warm.
func warmJobs(tb testing.TB, s *Scheme) (sigagg.PublicKey, []sigagg.VerifyJob) {
	tb.Helper()
	priv, pub, err := s.KeyGen(newDetRand(1))
	if err != nil {
		tb.Fatal(err)
	}
	ds := testDigests(400, 1)
	sigs, err := s.SignBatch(priv, ds)
	if err != nil {
		tb.Fatal(err)
	}
	jobs := make([]sigagg.VerifyJob, 8)
	for i := range jobs {
		agg, err := s.AggregateInto(nil, sigs[i*50:(i+1)*50])
		if err != nil {
			tb.Fatal(err)
		}
		jobs[i] = sigagg.VerifyJob{Digests: ds[i*50 : (i+1)*50], Agg: agg}
	}
	if err := s.VerifyJobs(pub, jobs); err != nil {
		tb.Fatal(err)
	}
	return pub, jobs
}

func BenchmarkVerifyJobsWarm(b *testing.B) {
	s := New(0)
	pub, jobs := warmJobs(b, s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.VerifyJobs(pub, jobs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyJobsResident20k is BenchmarkVerifyJobsWarm's summation
// at the repository benchmark's working-set size: 20,000 digests resident
// in the point cache (2 MB of points), every iteration summing a
// different batch of 8 jobs × 100 digests, so each H(d) comes from
// wherever the cache's layout left it — the Warm benchmark's 400 digests
// sit in L1 and hide that cost. "l2" runs the iterations back to back;
// "evicted" walks 16 MB between them (untimed), which is what the rest of
// a serving process does to the core's private caches between two
// verifications. ns/digest is sumJobs alone: dedupe, probe and mixed
// addition, without the closing multiplication.
func BenchmarkVerifyJobsResident20k(b *testing.B) {
	const n, per, batch = 20000, 100, 8
	s := New(0)
	priv, pub, err := s.KeyGen(newDetRand(1))
	if err != nil {
		b.Fatal(err)
	}
	ds := testDigests(n, 1)
	sigs, err := s.SignBatch(priv, ds)
	if err != nil {
		b.Fatal(err)
	}
	jobs := make([]sigagg.VerifyJob, n/per)
	for i := range jobs {
		agg, err := s.AggregateInto(nil, sigs[i*per:(i+1)*per])
		if err != nil {
			b.Fatal(err)
		}
		jobs[i] = sigagg.VerifyJob{Digests: ds[i*per : (i+1)*per], Agg: agg}
	}
	for i := 0; i < len(jobs); i += batch { // make every digest resident
		if err := s.VerifyJobs(pub, jobs[i:i+batch]); err != nil {
			b.Fatal(err)
		}
	}
	sc := s.scratch.Get().(*verifyScratch)
	defer s.scratch.Put(sc)
	junk := make([]byte, 16<<20)
	for _, evict := range []bool{false, true} {
		name := "l2"
		if evict {
			name = "evicted"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if evict {
					b.StopTimer()
					for k := 0; k < len(junk); k += 64 {
						junk[k]++
					}
					b.StartTimer()
				}
				// A stride coprime to the batch count: no stream
				// prefetcher follows the order the batches come in.
				lo := (i * 7 % (len(jobs) / batch)) * batch
				if _, err := s.sumJobs(sc, jobs[lo:lo+batch]); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*per*batch), "ns/digest")
		})
	}
}
