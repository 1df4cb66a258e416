//go:build race

package scenario

// raceDetector reports whether the tests run under the race detector, whose
// own allocations blur allocation counts.
const raceDetector = true
