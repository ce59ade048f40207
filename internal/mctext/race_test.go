//go:build race

package mctext

// raceEnabled reports that the race detector is active; its
// instrumentation allocates, so allocation-count pins are skipped.
const raceEnabled = true
