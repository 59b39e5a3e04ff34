//go:build race

package network

const raceEnabled = true
