//go:build race

package train

func init() { raceEnabled = true }
