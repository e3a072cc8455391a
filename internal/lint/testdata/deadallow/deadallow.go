// Package deadallow holds one //paralint:allow directive that suppresses a
// finding, one that suppresses nothing, and two whose first word names no
// rule, for the driver's report of unused and unknown directives.
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

// Reroll names a deleted rule and Redraw misspells a live one: neither
// suppresses the draw below it, which is reported.
func Reroll() int {
	//paralint:allow seedflow laundered clock // want "names no rule .first word .seedflow"
	return rand.Intn(6) // want "global math/rand Intn"
}

// Redraw misspells determinism.
func Redraw() int {
	return rand.Intn(6) //paralint:allow determinsm typo // want "global math/rand Intn|names no rule .first word .determinsm"
}
