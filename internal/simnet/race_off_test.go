//go:build !race

package simnet_test

const raceEnabled = false
