//go:build race

package main

// raceEnabled relaxes the smoke test's time limit under the race detector.
const raceEnabled = true
