package lint

import (
	"go/ast"
	"go/types"
)

// Atomics bans the legacy pointer-based sync/atomic functions
// (atomic.AddInt64(&s.n, 1), LoadUint32, StoreInt64, SwapPointer,
// CompareAndSwapInt32, ...). A variable reached through them is an ordinary
// variable everywhere else, so a plain read beside the atomic writers is a
// data race the race detector sees only on the interleavings a run happens
// to produce. The typed atomics (atomic.Int64, atomic.Bool, ...) admit no
// plain access, so "atomic everywhere" holds by construction.
var Atomics = &Analyzer{
	Name: "atomics",
	Doc:  "no legacy sync/atomic functions; use the typed atomics (atomic.Int64, atomic.Bool, ...)",
	Run:  runAtomics,
}

func runAtomics(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeAnyFunc(pass.Info, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			pass.Reportf(call.Lparen, "atomic.%s on a plain variable; use a typed atomic so no access can bypass it", fn.Name())
			return true
		})
	}
}
