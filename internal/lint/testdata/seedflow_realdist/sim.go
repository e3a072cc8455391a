// Package sim stands in for paratune/internal/cluster in
// TestSeedFlowRealNewRNG: it calls the real dist.NewRNG, so a wall-clock
// seed is only reported if analyzing internal/dist itself exported the
// SeedSink fact on NewRNG.
package sim

import (
	"time"

	"paratune/internal/dist"
)

// Config mirrors the repo's injected-seed pattern.
type Config struct {
	Seed int64
}

// seeded threads the injected seed into the real sink: clean.
func seeded(cfg Config) {
	_ = dist.NewRNG(cfg.Seed)
}

// clocked seeds one simulated processor's stream from the wall clock.
func clocked() {
	seed := time.Now().UnixNano() // want "wall clock"
	_ = dist.NewRNG(seed + 1)
}
