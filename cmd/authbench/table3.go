package main

import (
	"fmt"
	"time"

	"authdb/internal/digest"
	"authdb/internal/sigagg"
	"authdb/internal/sigagg/bas"
	"authdb/internal/sigagg/crsa"
)

// runTable3 regenerates Table 3: costs of the cryptographic primitives —
// BAS and condensed RSA signing, single verification, 1000-signature
// aggregation and aggregate verification, plus SHA over 256/512/1024-
// byte messages. Paper values are the "Current" column of Table 3
// (quad-core Xeon 3GHz, 2009); BAS here is the documented P-256
// simulation with the calibrated pairing-cost model.
func runTable3(args []string) error {
	fs := newFlags("table3")
	aggN := fs.Int("n", 1000, "aggregate size")
	if err := fs.Parse(args); err != nil {
		return err
	}

	type paperRow struct{ sign, verify, agg, aggVerify float64 } // ms
	paper := map[string]paperRow{
		"bas":  {1.5, 40.22, 9.06, 331.349},
		"crsa": {6.06, 0.087, 0.078, 0.094},
	}

	for _, scheme := range []sigagg.Scheme{bas.New(bas.DefaultPairingCost), crsa.New(1024)} {
		c, err := measureScheme(scheme)
		if err != nil {
			return err
		}
		p := paper[scheme.Name()]
		fmt.Printf("%s (%d-byte signatures)\n", schemeTitle(scheme), scheme.SignatureSize())
		fmt.Printf("  %-28s %12s %12s\n", "operation", "measured", "paper")
		fmt.Printf("  %-28s %9.3f ms %9.3f ms\n", "signing", ms(c.Sign), p.sign)
		fmt.Printf("  %-28s %9.3f ms %9.3f ms\n", "verification (1 sig)", ms(c.VerifyOne), p.verify)

		// Aggregation of n signatures, measured directly.
		aggDur, aggVerDur, err := measureAggregate(scheme, *aggN)
		if err != nil {
			return err
		}
		fmt.Printf("  %-28s %9.3f ms %9.3f ms\n",
			fmt.Sprintf("%d-sig aggregation", *aggN), ms(aggDur), p.agg)
		fmt.Printf("  %-28s %9.3f ms %9.3f ms\n\n",
			fmt.Sprintf("%d-sig aggregate verification", *aggN), ms(aggVerDur), p.aggVerify)
	}

	// SHA costs (160-bit truncated SHA-256, see internal/digest).
	fmt.Println("Secure hashing (160-bit digests)")
	paperSHA := map[int]float64{256: 1.35, 512: 2.28, 1024: 4.2}
	for _, size := range []int{256, 512, 1024} {
		msg := make([]byte, size)
		d := timeIt(1000, func() { digest.Sum(msg) })
		fmt.Printf("  %-28s %9.3f µs %9.3f µs\n",
			fmt.Sprintf("%d-byte message", size), us(d), paperSHA[size])
	}
	return nil
}

func schemeTitle(s sigagg.Scheme) string {
	switch s.Name() {
	case "bas":
		return "Bilinear Aggregate Signature (simulated pairing, P-256)"
	case "crsa":
		return "Condensed RSA (1024-bit)"
	}
	return s.Name()
}

func measureAggregate(scheme sigagg.Scheme, n int) (agg, aggVerify time.Duration, err error) {
	priv, pub, err := scheme.KeyGen(nil)
	if err != nil {
		return 0, 0, err
	}
	bound, err := sigagg.Bind(scheme, pub)
	if err != nil {
		return 0, 0, err
	}
	digests := make([][]byte, n)
	sigs := make([]sigagg.Signature, n)
	for i := 0; i < n; i++ {
		d := digest.Sum([]byte(fmt.Sprintf("t3-%d", i)))
		digests[i] = d[:]
		sigs[i], err = bound.Sign(priv, d[:])
		if err != nil {
			return 0, 0, err
		}
	}
	agg = timeIt(1, func() {
		if _, err := bound.AggregateInto(nil, sigs); err != nil {
			panic(err)
		}
	})
	combined, err := bound.AggregateInto(nil, sigs)
	if err != nil {
		return 0, 0, err
	}
	aggVerify = timeIt(1, func() {
		if err := bound.AggregateVerify(pub, digests, combined); err != nil {
			panic(err)
		}
	})
	return agg, aggVerify, nil
}
