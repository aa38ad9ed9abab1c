//go:build race

package core

// raceEnabled reports a -race build, under which sync.Pool drops items on
// purpose and an allocation count means nothing.
const raceEnabled = true
