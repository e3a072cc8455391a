// Package selftest is the driver's own regression fixture: one wireproto
// finding plus one directive-category finding, analyzed by CI with
//
//	go run ./cmd/paralint -rules wireproto,lockorder -json \
//	    ./internal/lint/testdata/selftest
//
// and diffed byte for byte against expect.json. The malformed
// //paralint:lockrank directive at the bottom pins exit status 3. Wildcard
// patterns (./...) never reach this package — testdata directories are
// hidden from them — so the repo's own lint gate stays clean.
package selftest

// The frozen wire block: opCode covers both ops, opName forgets opPong, so
// wireproto reports the inverse drift at the decoder switch.
const (
	opPing = 1
	opPong = 2
)

func opCode(name string) (int, bool) {
	switch name {
	case "ping":
		return opPing, true
	case "pong":
		return opPong, true
	}
	return 0, false
}

func opName(code int) (string, bool) {
	switch code {
	case opPing:
		return "ping", true
	}
	return "", false
}

// pad carries a lock rank that is not an integer: lockorder reports the
// malformed directive, and the driver exits with status 3.
//
//paralint:lockrank high
var pad int

var (
	_ = opCode
	_ = opName
	_ = pad
)
