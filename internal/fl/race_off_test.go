//go:build !race

package fl

// raceEnabled reports whether the race detector is active; see
// race_on_test.go for why byte-count comparisons consult it.
const raceEnabled = false
