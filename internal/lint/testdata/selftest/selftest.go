// Package selftest is the driver's own regression fixture: one
// directive-category finding, analyzed by CI with
//
//	go run ./cmd/paralint -rules lockorder -json \
//	    ./internal/lint/testdata/selftest
//
// and diffed byte for byte against expect.json. The malformed
// //paralint:lockrank directive at the bottom pins exit status 3. Wildcard
// patterns (./...) never reach this package — testdata directories are
// hidden from them — so the repo's own lint gate stays clean.
package selftest

// pad carries a lock rank that is not an integer: lockorder reports the
// malformed directive, and the driver exits with status 3.
//
//paralint:lockrank high
var pad int

var _ = pad
