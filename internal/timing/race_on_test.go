//go:build race

package timing

// raceEnabled reports a -race build, under which the issue-stage
// identity test skips its single-worker runs.
const raceEnabled = true
