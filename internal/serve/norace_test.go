//go:build !race

package serve

// raceEnabled is true under -race, whose instrumentation allocates: the
// allocation gates skip themselves then.
const raceEnabled = false
