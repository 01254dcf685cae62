//go:build race

package nn

// raceEnabled reports whether the binary was built with the race
// detector, under which sync.Pool deliberately drops items and the
// zero-allocation assertion cannot hold.
const raceEnabled = true
