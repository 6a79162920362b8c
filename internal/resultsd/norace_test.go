//go:build !race

package resultsd

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
