//go:build !race

package core

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
