//go:build race

package core

// raceEnabled: under the race detector the claim-memo oracle costs several
// times as much per step, so it runs its short seed count there.
const raceEnabled = true
