//go:build race

package query

// raceEnabled: under the race detector the plan-cache oracle costs ten
// times as much per step, so it runs its short seed count there.
const raceEnabled = true
