//go:build race

package campaign_test

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates, so allocation counts do not hold under it.
const raceEnabled = true
