package main

import (
	"fmt"
	"time"

	"authdb/internal/digest"
	"authdb/internal/sigagg"
)

// timeIt measures the mean wall time of fn over enough iterations to be
// stable (at least minIters, at least ~50ms of work).
func timeIt(minIters int, fn func()) time.Duration {
	iters := 0
	start := time.Now()
	for {
		fn()
		iters++
		if iters >= minIters && time.Since(start) > 50*time.Millisecond {
			break
		}
		if iters >= 100000 {
			break
		}
	}
	return time.Since(start) / time.Duration(iters)
}

// cryptoCosts holds measured primitive costs used to calibrate the
// simulator (the paper's Table 3 on our host).
type cryptoCosts struct {
	Sign      time.Duration             // one signature
	VerifyOne time.Duration             // verify one signature
	AddOp     time.Duration             // one aggregation operation
	VerifyAgg func(n int) time.Duration // verify an n-signature aggregate
}

// measureScheme benchmarks a scheme's primitives.
func measureScheme(scheme sigagg.Scheme) (cryptoCosts, error) {
	priv, pub, err := scheme.KeyGen(nil)
	if err != nil {
		return cryptoCosts{}, err
	}
	bound, err := sigagg.Bind(scheme, pub)
	if err != nil {
		return cryptoCosts{}, err
	}
	d := digest.Sum([]byte("calibration"))
	sig, err := bound.Sign(priv, d[:])
	if err != nil {
		return cryptoCosts{}, err
	}

	var c cryptoCosts
	c.Sign = timeIt(5, func() {
		if _, err := bound.Sign(priv, d[:]); err != nil {
			panic(err)
		}
	})
	c.VerifyOne = timeIt(3, func() {
		if err := bound.Verify(pub, d[:], sig); err != nil {
			panic(err)
		}
	})
	c.AddOp = timeIt(20, func() {
		if _, err := bound.AggregateInto(nil, []sigagg.Signature{sig, sig}); err != nil {
			panic(err)
		}
	})

	// Per-signature aggregate verification cost, measured at n=64 and
	// extrapolated linearly (both BAS pairings and cRSA hashing scale
	// linearly in n).
	const probe = 64
	digests := make([][]byte, probe)
	sigs := make([]sigagg.Signature, probe)
	for i := range digests {
		di := digest.Sum([]byte(fmt.Sprintf("cal-%d", i)))
		digests[i] = di[:]
		sigs[i], err = bound.Sign(priv, di[:])
		if err != nil {
			return cryptoCosts{}, err
		}
	}
	agg, err := bound.AggregateInto(nil, sigs)
	if err != nil {
		return cryptoCosts{}, err
	}
	per := timeIt(2, func() {
		if err := bound.AggregateVerify(pub, digests, agg); err != nil {
			panic(err)
		}
	})
	base := c.VerifyOne
	slope := (per - base) / probe
	if slope < 0 {
		slope = per / probe
	}
	c.VerifyAgg = func(n int) time.Duration {
		return base + time.Duration(n)*slope
	}
	return c, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
