//go:build race

package client_test

// raceEnabled: the race detector's instrumentation allocates, so
// allocation budgets are not checked under it.
const raceEnabled = true
