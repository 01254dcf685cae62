//go:build race

package serve

// raceEnabled reports whether the binary was built with the race
// detector, whose runtime allocates on its own account: tests that
// count allocations assert nothing under it.
const raceEnabled = true
