//go:build race

package exec_test

// raceEnabled reports a -race build, under which the differential test
// runs only the bug-free variant: the detector slows the reference
// interpreter about tenfold, and the BugSet variants add no concurrency.
const raceEnabled = true
