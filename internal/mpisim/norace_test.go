//go:build !race

package mpisim

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
