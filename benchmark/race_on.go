//go:build race

package main

// raceEnabled reports that the race detector is compiled in. It slows the
// open-loop generators past their schedule, so steady-mixed's
// sustainability limits, which are about the system, are not checked.
const raceEnabled = true
