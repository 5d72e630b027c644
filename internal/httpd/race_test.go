//go:build race

package httpd

// raceEnabled reports whether the tests run under the race detector.
const raceEnabled = true
