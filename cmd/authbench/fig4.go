package main

import (
	"fmt"

	"authdb/internal/repro/joinproof"
)

// runFig4 regenerates Figure 4: the (IA/IB, IB/p) configurations for
// which Bloom-filter join processing beats boundary values, i.e. the
// region where z = 0.0432·IA/IB + 2·p/IB stays under 0.75 (PK-FK join,
// 8 bits per distinct value, 4-byte attributes).
func runFig4(args []string) error {
	fs := newFlags("fig4")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Println("z = 0.0432*(IA/IB) + 2/(IB/p); viable (BF wins) where z < 0.75")
	fmt.Printf("\n%8s | ", "IA/IB")
	ibps := []float64{2, 2.83, 4, 6, 6.29, 8, 10}
	for _, ibp := range ibps {
		fmt.Printf("%7.2f ", ibp)
	}
	fmt.Printf("  <- IB/p\n%s\n", "---------+---------------------------------------------------------")
	for _, ia := range []float64{1, 2, 4, 6, 8, 10} {
		fmt.Printf("%8.0f | ", ia)
		for _, ibp := range ibps {
			z := joinproof.Z(ia, ibp)
			mark := " "
			if z < joinproof.ZThreshold {
				mark = "*"
			}
			fmt.Printf("%6.3f%s ", z, mark)
		}
		fmt.Println()
	}
	fmt.Println("\n(*) viable. Paper landmarks: IB/p >= 2.83 at IA/IB=1; IB/p >= 6.29 at IA/IB=10.")

	// The minimum viable IB/p per IA/IB ratio.
	fmt.Println("\nminimum viable IB/p per IA/IB:")
	for _, ia := range []float64{1, 2, 5, 10} {
		lo, hi := 1.0, 100.0
		for i := 0; i < 60; i++ {
			mid := (lo + hi) / 2
			if joinproof.Z(ia, mid) < joinproof.ZThreshold {
				hi = mid
			} else {
				lo = mid
			}
		}
		fmt.Printf("  IA/IB=%-4.0f -> IB/p >= %.2f\n", ia, hi)
	}
	return nil
}
