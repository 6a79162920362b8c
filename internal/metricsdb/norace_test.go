//go:build !race

package metricsdb

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
