package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// lifecyclePackages are the packages whose goroutines must be provably
// joinable or cancellable: the harmony server (long-lived network
// goroutines), the cluster simulator (worker fan-out), the core engine
// (async evaluation plumbing), and the replication pool with the experiments
// that run on it. A leaked goroutine in any of them either corrupts a later
// measurement or wedges shutdown.
var lifecyclePackages = []string{
	"paratune/internal/chaos",
	"paratune/internal/cluster",
	"paratune/internal/experiment",
	"paratune/internal/feddb",
	"paratune/internal/core",
	"paratune/internal/harmony",
	"paratune/internal/par",
}

func isLifecyclePackage(path string) bool {
	path = strings.TrimSuffix(path, "_test")
	for _, p := range lifecyclePackages {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// GoroutineJoins is the cross-package fact marking a function whose body
// contains join/cancel machinery — a channel receive, send, or close, a
// select, a range over a channel, or a sync.WaitGroup Done/Wait — so a `go`
// statement launching it has a provable way to be stopped or awaited.
type GoroutineJoins struct{}

// AFact marks GoroutineJoins as a fact.
func (*GoroutineJoins) AFact() {}

func (*GoroutineJoins) String() string { return "GoroutineJoins" }

// GoroutineLifecycle requires every `go` statement in the server and
// simulator core to launch a body with a provable join or cancel path:
// the goroutine itself must block on a channel (receive, send, select,
// range) or participate in a WaitGroup. Fire-and-forget goroutines have no
// shutdown story — they outlive Close, race the test harness, and turn a
// deterministic simulation into a flaky one.
var GoroutineLifecycle = &Analyzer{
	Name:      "goroutinelifecycle",
	Doc:       "go statements in harmony/cluster/core/par/experiment must have a join or cancel path",
	FactTypes: []Fact{(*GoroutineJoins)(nil)},
	Run:       runGoroutineLifecycle,
}

func runGoroutineLifecycle(pass *Pass) {
	// Phase 1: compute join evidence for every function declared in this
	// package, to a fixpoint so wrappers that delegate to an evidenced
	// sibling count too, and export facts for dependents.
	evidence := make(map[*types.Func]bool)
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				decls[fn] = fd
			}
		}
	}
	hasEvidence := func(fn *types.Func) bool {
		if evidence[fn] {
			return true
		}
		var j GoroutineJoins
		return pass.ImportObjectFact(fn, &j)
	}
	for changed := true; changed; {
		changed = false
		for fn, fd := range decls {
			if evidence[fn] {
				continue
			}
			if joinEvidence(pass, fd.Body, hasEvidence) {
				evidence[fn] = true
				changed = true
			}
		}
	}
	for fn, ok := range evidence {
		if ok {
			pass.ExportObjectFact(fn, &GoroutineJoins{})
		}
	}

	// Phase 2: check go statements in the lifecycle packages.
	if !isLifecyclePackage(pass.Pkg.Path()) {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
				if !joinEvidence(pass, lit.Body, hasEvidence) {
					pass.Reportf(g.Pos(),
						"goroutine has no join or cancel path; block on a done channel, select, or WaitGroup so shutdown can collect it")
				}
				return true
			}
			fn := calleeAnyFunc(pass.Info, g.Call)
			if fn == nil {
				return true // dynamic call through a func value: cannot prove either way
			}
			if !hasEvidence(fn) {
				pass.Reportf(g.Pos(),
					"goroutine runs %s, which has no join or cancel path; add a done channel, select, or WaitGroup so shutdown can collect it",
					fn.Name())
			}
			return true
		})
	}
}

// joinEvidence reports whether body contains join/cancel machinery: a channel
// operation (receive, send, close, select, range-over-channel), a WaitGroup
// Done/Wait, or a *delegation* to a function already known to contain one.
// Delegation means the call stands alone as a statement (or defer) — control
// is handed to the callee's loop. A call whose result the body consumes is a
// subroutine, and a channel op buried inside a subroutine is not a join
// path for this goroutine: handleConn using dispatch (which internally asks
// the session's channel-driven run loop) still blocks forever on its own
// socket read and is exactly the leak this rule exists to catch.
func joinEvidence(pass *Pass, body *ast.BlockStmt, known func(*types.Func) bool) bool {
	found := false
	delegated := func(call *ast.CallExpr) {
		if found || known == nil {
			return
		}
		if fn := calleeAnyFunc(pass.Info, call); fn != nil && known(fn) {
			found = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found = true
			}
		case *ast.SendStmt:
			found = true
		case *ast.SelectStmt:
			found = true
		case *ast.RangeStmt:
			if t := pass.Info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.ExprStmt:
			if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
				delegated(call)
			}
		case *ast.DeferStmt:
			delegated(n.Call)
		case *ast.ReturnStmt:
			// A tail call propagates its result without consuming it.
			for _, r := range n.Results {
				if call, ok := ast.Unparen(r).(*ast.CallExpr); ok {
					delegated(call)
				}
			}
		case *ast.AssignStmt:
			// `_ = f()` discards the result; still pure delegation.
			allBlank := true
			for _, l := range n.Lhs {
				if id, ok := ast.Unparen(l).(*ast.Ident); !ok || id.Name != "_" {
					allBlank = false
					break
				}
			}
			if allBlank && len(n.Rhs) == 1 {
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
					delegated(call)
				}
			}
		case *ast.CallExpr:
			// close(ch) signals completion to whoever receives on ch —
			// the canonical done-channel handshake.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" {
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
					found = true
				}
			}
			if fn := calleeAnyFunc(pass.Info, n); fn != nil && isWaitGroupJoin(fn) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isWaitGroupJoin reports whether fn is sync.WaitGroup.Done or Wait.
func isWaitGroupJoin(fn *types.Func) bool {
	if fn.Name() != "Done" && fn.Name() != "Wait" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
