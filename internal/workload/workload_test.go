package workload

import (
	"math"
	"testing"
)

func TestRecordsUniqueSortedKeys(t *testing.T) {
	cfg := Config{N: 10_000, RecLen: 512, Seed: 3}
	recs := Records(cfg)
	if len(recs) != cfg.N {
		t.Fatalf("got %d records", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Key <= recs[i-1].Key {
			t.Fatalf("keys not strictly increasing at %d", i)
		}
	}
	// Record payload pads to ~RecLen.
	if got := len(recs[0].Attrs[0]); got != 512-20 {
		t.Fatalf("payload = %d bytes", got)
	}
}

func TestRecordsDeterministicPerSeed(t *testing.T) {
	a := Records(Config{N: 100, RecLen: 64, Seed: 9})
	b := Records(Config{N: 100, RecLen: 64, Seed: 9})
	c := Records(Config{N: 100, RecLen: 64, Seed: 10})
	if a[50].Key != b[50].Key {
		t.Fatal("same seed must reproduce keys")
	}
	same := true
	for i := range a {
		if a[i].Key != c[i].Key {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical keys")
	}
}

func TestQueryGenSelectivityRange(t *testing.T) {
	recs := Records(Config{N: 10_000, RecLen: 64, Seed: 2})
	keys := Keys(recs)
	g := NewQueryGen(keys, 0.001, 4)
	for i := 0; i < 1000; i++ {
		q := g.Next()
		if q.Card < 5 || q.Card > 15 { // [sf/2, 3sf/2] of 10k = [5, 15]
			t.Fatalf("cardinality %d outside [5,15]", q.Card)
		}
		if q.Lo > q.Hi {
			t.Fatal("inverted query")
		}
	}
}

func TestQueryGenPointQueries(t *testing.T) {
	keys := Keys(Records(Config{N: 1000, RecLen: 64, Seed: 2}))
	g := NewQueryGen(keys, 1e-9, 4)
	q := g.Next()
	if q.Card != 1 || q.Lo != q.Hi {
		t.Fatalf("point query = %+v", q)
	}
}

func TestUpdateGenDrawsExistingKeys(t *testing.T) {
	keys := Keys(Records(Config{N: 100, RecLen: 64, Seed: 2}))
	present := map[int64]bool{}
	for _, k := range keys {
		present[k] = true
	}
	g := NewUpdateGen(keys, 5)
	for i := 0; i < 100; i++ {
		if !present[g.Next()] {
			t.Fatal("update key not in population")
		}
	}
}

func TestTPCEShape(t *testing.T) {
	cfg := TPCEConfig{NR: 685, NS: 8940, IB: 342, Seed: 1} // 1/10 scale
	tp := NewTPCE(cfg)
	if len(tp.R) != cfg.NR || len(tp.S) != cfg.NS {
		t.Fatalf("sizes %d/%d", len(tp.R), len(tp.S))
	}
	// R.A unique.
	seen := map[int64]bool{}
	for _, r := range tp.R {
		if seen[r.Key] {
			t.Fatal("duplicate R.A")
		}
		seen[r.Key] = true
	}
	// S.B distinct count == IB, and every S.B exists in R.A (PK-FK).
	distinct := map[int64]bool{}
	for _, s := range tp.S {
		distinct[s.Key] = true
		if !seen[s.Key] {
			t.Fatal("S.B value missing from R.A: not a PK-FK join")
		}
	}
	if len(distinct) != cfg.IB {
		t.Fatalf("IB = %d, want %d", len(distinct), cfg.IB)
	}
	if len(tp.Held) != cfg.IB {
		t.Fatalf("Held = %d", len(tp.Held))
	}
}

func TestTPCEDefaultMatchesPaper(t *testing.T) {
	cfg := DefaultTPCEConfig()
	if cfg.NR != 6850 || cfg.NS != 894_000 || cfg.IB != 3425 {
		t.Fatalf("defaults %+v do not match §5.5", cfg)
	}
}

func TestSelectRAlphaControl(t *testing.T) {
	tp := NewTPCE(TPCEConfig{NR: 1000, NS: 20000, IB: 500, Seed: 2})
	for _, alpha := range []float64{0.0, 0.3, 0.8, 1.0} {
		sel := tp.SelectR(0.2, alpha, 7)
		if len(sel) == 0 {
			t.Fatal("empty selection")
		}
		matched := 0
		for _, r := range sel {
			if tp.Held[r.Key] {
				matched++
			}
		}
		got := float64(matched) / float64(len(sel))
		if math.Abs(got-alpha) > 0.05 {
			t.Fatalf("alpha target %.1f, got %.2f", alpha, got)
		}
	}
}

func TestSelectRUncontrolled(t *testing.T) {
	tp := NewTPCE(TPCEConfig{NR: 1000, NS: 20000, IB: 500, Seed: 2})
	sel := tp.SelectR(0.5, -1, 7)
	if len(sel) != 500 {
		t.Fatalf("selected %d, want 500", len(sel))
	}
}

func TestHotRangeGen(t *testing.T) {
	recs := Records(Config{N: 10_000, RecLen: 64, Seed: 3})
	keys := Keys(recs)
	catalog := NewHotRangeCatalog(keys, 128, 0.001, 7)
	if len(catalog) != 128 {
		t.Fatalf("catalog size %d", len(catalog))
	}
	for _, q := range catalog {
		if q.Lo > q.Hi || q.Card < 1 {
			t.Fatalf("bad catalog range %+v", q)
		}
	}
	counts := make(map[int64]int)
	g := NewHotRangeGen(catalog, 1.2, 11)
	const draws = 20_000
	for i := 0; i < draws; i++ {
		q := g.Next()
		counts[q.Lo<<20|q.Hi&0xfffff]++
	}
	// Zipf rank 0 (the hottest range) must dominate a uniform share.
	hot := catalog[0]
	if got := counts[hot.Lo<<20|hot.Hi&0xfffff]; got < 4*draws/len(catalog) {
		t.Fatalf("hottest range drew only %d of %d (uniform share %d): not skewed",
			got, draws, draws/len(catalog))
	}
	// Two generators over one catalog must emit ranges from the catalog.
	g2 := NewHotRangeGen(catalog, 1.2, 99)
	seen := make(map[RangeQuery]bool, len(catalog))
	for _, q := range catalog {
		seen[q] = true
	}
	for i := 0; i < 100; i++ {
		if q := g2.Next(); !seen[q] {
			t.Fatalf("generator emitted range %+v outside the catalog", q)
		}
	}
}
