//go:build race

package fl

// raceEnabled reports whether the race detector is active. Under -race,
// sync.Pool deliberately drops a fraction of Puts, so the bytes a pooled
// path allocates vary from run to run and byte-count comparisons stand
// down.
const raceEnabled = true
