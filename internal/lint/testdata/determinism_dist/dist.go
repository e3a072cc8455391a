// Package dist stands in for paratune/internal/dist in
// TestDeterminismImpersonatedDist: testdata/determinism_sim's dist.NewRNG
// calls resolve to this NewRNG instead of the real one.
package dist

import "math/rand"

// NewRNG mirrors dist.NewRNG's signature.
func NewRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
