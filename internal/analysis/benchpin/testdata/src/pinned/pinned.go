// Fixtures for the benchpin analyzer: package pinned holds the one path
// (New) and, in benchpin.go, a wrapper pinned for the benchmark (Old).
package pinned

// New is the one path.
func New() int { return 1 }
