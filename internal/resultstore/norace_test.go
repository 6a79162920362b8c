//go:build !race

package resultstore

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
