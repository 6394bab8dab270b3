package main

import (
	"fmt"

	"authdb/internal/repro/sigcache"
	"authdb/internal/sigagg/bas"
)

// runFig6 regenerates Figure 6: the expected VO-construction cost per
// query versus the number of cached signature pairs, for the skewed
// (truncated harmonic) and uniform query-cardinality distributions over
// one million records. Operation counts come from Algorithm 1's utility
// model; times convert via the measured ECC point-addition cost.
func runFig6(args []string) error {
	fs := newFlags("fig6")
	logN := fs.Int("logn", 20, "log2 of the relation size (paper: 20)")
	pairs := fs.Int("pairs", 20, "cached signature pairs to sweep")
	if err := fs.Parse(args); err != nil {
		return err
	}
	n := 1 << *logN

	costs, err := measureScheme(bas.New(0))
	if err != nil {
		return err
	}
	opMS := ms(costs.AddOp)
	fmt.Printf("N = %d records; ECC aggregation op = %.3f ms (measured)\n", n, opMS)
	fmt.Println("paper reference at N=1M: no cache 9.85 ms (skewed) / 5.08 s (uniform);")
	fmt.Println("8 cached pairs cut proof construction by 57% / 75%.")
	fmt.Println()

	for _, d := range []struct {
		name string
		dist sigcache.Dist
	}{
		{"skewed P(q) ~ 1/q", sigcache.Harmonic},
		{"uniform P(q) = 1/N", sigcache.Uniform},
	} {
		an, err := sigcache.NewAnalyzer(n, d.dist)
		if err != nil {
			return err
		}
		sel := an.Select(*pairs)
		fmt.Printf("%s: base cost %.0f ops = %s\n", d.name, an.BaseCost(),
			fmtOps(an.BaseCost(), opMS))
		fmt.Printf("  %6s %14s %14s %10s\n", "pairs", "ops/query", "time", "reduction")
		for k, cost := range sel.CostAfterPair {
			fmt.Printf("  %6d %14.0f %14s %9.1f%%\n",
				k+1, cost, fmtOps(cost, opMS), 100*(1-cost/an.BaseCost()))
		}
		limit := 8
		if len(sel.Nodes) < 2*limit {
			limit = len(sel.Nodes) / 2
		}
		fmt.Printf("  top cached pairs: ")
		for i := 0; i < 2*limit && i < len(sel.Nodes); i++ {
			fmt.Printf("%v ", sel.Nodes[i])
		}
		fmt.Println()
		fmt.Println()
	}
	return nil
}

func fmtOps(ops, opMS float64) string {
	t := ops * opMS
	if t >= 1000 {
		return fmt.Sprintf("%.2f s", t/1000)
	}
	return fmt.Sprintf("%.2f ms", t)
}
