//go:build !race

package compiler

const raceEnabled = false
