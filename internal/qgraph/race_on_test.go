//go:build race

package qgraph

// raceEnabled reports that the race detector is instrumenting this build;
// allocation-budget assertions are meaningless under it.
const raceEnabled = true
