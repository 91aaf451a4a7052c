//go:build race

package correlated

// raceEnabled reports that the race detector is compiled in. The tests it
// gates are single-goroutine and long: under it they run at their -short
// sizes.
const raceEnabled = true
