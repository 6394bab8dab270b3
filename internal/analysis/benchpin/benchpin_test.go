package benchpin_test

import (
	"testing"

	"authdb/internal/analysis/analysistest"
	"authdb/internal/analysis/benchpin"
)

func TestBenchPin(t *testing.T) {
	analysistest.Run(t, "testdata", benchpin.Analyzer, "pinned", "user")
}
