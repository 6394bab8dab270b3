// Package authlint assembles the six invariant analyzers into the
// suite the cmd/authlint driver and CI run over the repository. See
// DESIGN.md "Invariants & static analysis" for the invariant →
// analyzer → historical-incident table.
package authlint

import (
	"authdb/internal/analysis"
	"authdb/internal/analysis/benchpin"
	"authdb/internal/analysis/bufcustody"
	"authdb/internal/analysis/lockblock"
	"authdb/internal/analysis/lockepoch"
	"authdb/internal/analysis/nocachesign"
	"authdb/internal/analysis/retryclass"
)

// All returns the full authlint suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		bufcustody.Analyzer,
		lockepoch.Analyzer,
		retryclass.Analyzer,
		nocachesign.Analyzer,
		lockblock.Analyzer,
		benchpin.Analyzer,
	}
}

// ByName resolves a comma-separated analyzer selection; empty selects
// the whole suite.
func ByName(names []string) []*analysis.Analyzer {
	if len(names) == 0 {
		return All()
	}
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var out []*analysis.Analyzer
	for _, a := range All() {
		if want[a.Name] {
			out = append(out, a)
		}
	}
	return out
}
