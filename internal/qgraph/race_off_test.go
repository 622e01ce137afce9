//go:build !race

package qgraph

const raceEnabled = false
