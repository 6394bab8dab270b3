//go:build race

package wire

// raceEnabled: sync.Pool drops a share of its puts under the race
// detector, so allocation counts mean nothing there.
const raceEnabled = true
