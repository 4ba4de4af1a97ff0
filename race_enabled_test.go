//go:build race

package rvm_test

// raceEnabled reports whether the race detector is compiled in; timing
// ratios are not stable under -race, so timing-sensitive tests skip.
const raceEnabled = true
