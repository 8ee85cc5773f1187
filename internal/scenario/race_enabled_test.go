//go:build race

package scenario

// raceEnabled mirrors the -race build flag so heavy pure-serial
// simulation tests can skip themselves.
const raceEnabled = true
