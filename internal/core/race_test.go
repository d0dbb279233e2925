//go:build race

package core

// raceEnabled is true under -race, whose instrumentation allocates: the
// allocation gates skip themselves then.
const raceEnabled = true
