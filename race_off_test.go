//go:build !race

package correlated

const raceEnabled = false
