//go:build race

package service

// raceEnabled reports that the race detector is compiled in: it keeps shadow
// memory beside everything it watches, so a budget on the heap means nothing
// under it.
const raceEnabled = true
