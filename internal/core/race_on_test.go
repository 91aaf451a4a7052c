//go:build race

package core

// raceEnabled reports that the race detector is compiled in: it allocates
// beside every allocation it watches, so a budget on bytes allocated means
// nothing under it.
const raceEnabled = true
