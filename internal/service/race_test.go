//go:build race

package service

// raceEnabled reports a -race build. Under the race detector sync.Pool
// drops items at random, so allocation counts of code that reaches a
// pool (encoding/json, fmt) are not repeatable.
const raceEnabled = true
