//go:build !race

package lsmkv

const raceEnabled = false
