//go:build race

package encoding

// raceEnabled reports a -race build. Its sync.Pool drops items at random,
// so math/big's internal scratch pools allocate and allocation counts are
// not the program's.
const raceEnabled = true
