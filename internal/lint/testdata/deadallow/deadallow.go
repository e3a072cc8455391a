// Package deadallow holds one //paralint:allow directive that suppresses a
// finding and one that suppresses nothing, for the driver's report of
// unused directives.
package deadallow

import "math/rand"

// Roll draws from the process-global source, deliberately.
func Roll() int {
	return rand.Intn(6) //paralint:allow determinism the fixture's one real finding
}

// Sum discards no error, so errdiscipline has nothing here to suppress.
func Sum(a, b int) int {
	//paralint:allow errdiscipline stale // want "errdiscipline suppresses no finding"
	return a + b
}
