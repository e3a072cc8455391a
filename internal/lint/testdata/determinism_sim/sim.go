// Package sim is golden-file input for the determinism analyzer, loaded as
// if it were a simulation package (paratune/internal/cluster and others).
package sim

import (
	crand "crypto/rand"
	"math/big"
	"math/rand"
	"os"
	"time"

	"paratune/internal/dist"
)

func badWallClock() time.Time {
	return time.Now() // want "wall-clock time.Now in simulation package"
}

func badElapsed(start time.Time) time.Duration {
	return time.Since(start) // want "wall-clock time.Since in simulation package"
}

func badGlobalRand() int {
	return rand.Intn(10) // want "global math/rand Intn"
}

func badGlobalShuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] }) // want "global math/rand Shuffle"
}

func badWallClockSeed() *rand.Rand {
	return rand.New(rand.NewSource(time.Now().UnixNano())) // want "wall-clock time.Now in simulation package"
}

// badLaunderedClock reads the clock and seeds on different lines; the read
// is reported wherever its value goes.
func badLaunderedClock() *rand.Rand {
	seed := time.Now().UnixNano() // want "wall-clock time.Now in simulation package"
	seed ^= 0x5deece66d
	return rand.New(rand.NewSource(seed))
}

// newRNG forwards its parameter to the constructor.
func newRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// badChainedClock launders the clock through the local helper.
func badChainedClock() *rand.Rand {
	s := time.Now().Unix() // want "wall-clock time.Now in simulation package"
	return newRNG(s)
}

// badDistSeed hands a clock-derived seed to the imported dist.NewRNG.
func badDistSeed() {
	seed := time.Now().UnixNano() // want "wall-clock time.Now in simulation package"
	_ = dist.NewRNG(seed + 1)
}

func badPid() rand.Source {
	return rand.NewSource(int64(os.Getpid())) // want "process id os.Getpid"
}

func badParentPid() {
	_ = dist.NewRNG(int64(os.Getppid())) // want "process id os.Getppid"
}

func badEntropySeed() {
	n, err := crand.Int(crand.Reader, big.NewInt(1<<62)) // want "crypto/rand.(Int|Reader) in simulation package"
	if err == nil {
		_ = dist.NewRNG(n.Int64())
	}
}

func allowedTrailing() time.Time {
	return time.Now() //paralint:allow determinism golden test of the trailing escape hatch
}

func allowedPreceding() time.Time {
	//paralint:allow determinism golden test of the standalone escape hatch
	return time.Now()
}

func goodSeeded(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64()
}

// goodDistSeed threads an injected seed into dist.NewRNG.
func goodDistSeed(seed int64) {
	_ = dist.NewRNG(seed*1e6 + 7)
}

func goodConstantTime() time.Duration {
	return 3 * time.Second
}
