//go:build race

package resultsd

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop objects at random, so this package's allocation budgets are not
// asserted under it; the rest of each such test still runs.
const raceEnabled = true
