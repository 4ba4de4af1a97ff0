//go:build !race

package rvm_test

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
