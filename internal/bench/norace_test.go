//go:build !race

package bench

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
