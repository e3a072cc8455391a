package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// CtxAware records whether calling a function can park the caller on a
// channel operation that no cancellation signal can interrupt. Exported for
// every function analyzed, so a scoped package importing a helper knows
// whether the helper is safe to call from a request path.
type CtxAware struct {
	BlocksUncancellably bool
	// Why names the first uncancellable site, for call-site messages.
	Why string
}

// AFact marks CtxAware as a paralint fact.
func (*CtxAware) AFact() {}

// ctxflowPackages are the packages whose blocking operations must be
// cancellable: every channel op reachable from a request path must carry a
// way out — a ctx.Done()/done-channel arm in its select, a timer arm, or a
// provably buffered (hence non-blocking) send. The harmony server, the chaos
// layer and the federation syncer all host goroutines that outlive a single
// call; one uncancellable park wedges shutdown or leaks the goroutine.
var ctxflowPackages = []string{
	"paratune/internal/chaos",
	"paratune/internal/feddb",
	"paratune/internal/harmony",
}

func isCtxflowPackage(path string) bool {
	path = strings.TrimSuffix(path, "_test")
	for _, p := range ctxflowPackages {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// CtxFlow checks that blocking channel operations in the service packages
// are cancellable, and propagates the property across calls via
// CtxAware facts so a scoped package cannot launder an uncancellable park
// through a helper in another package.
var CtxFlow = &Analyzer{
	Name:      "ctxflow",
	Doc:       "blocking channel ops in harmony/chaos/feddb must be cancellable (ctx.Done arm, done channel, timer, or provably buffered)",
	FactTypes: []Fact{(*CtxAware)(nil)},
	Run:       runCtxFlow,
}

// ctxEnv is the package-wide evidence the per-function walk consults.
type ctxEnv struct {
	pass *Pass
	// bufferedType maps a channel type string to true when every make of
	// that type in the package has a constant capacity >= 1 — a send on such
	// a channel blocks only when the handshake is already broken, so sends
	// are exempt. (Receives are not: a buffered channel can be empty.)
	bufferedType map[string]bool
	// closedObjs holds channel objects passed to close() anywhere in the
	// package: receiving from one is a cancellation arm by convention (the
	// close broadcasts).
	closedObjs map[types.Object]bool
}

func runCtxFlow(pass *Pass) {
	env := &ctxEnv{
		pass:         pass,
		bufferedType: bufferedChanTypes(pass),
		closedObjs:   closedChanObjs(pass),
	}

	// Fixpoint over the package's functions: a function blocks uncancellably
	// if it contains such a site or calls (synchronously) a function that
	// does. Imported facts seed the callee lookup across packages.
	type funcInfo struct {
		fn     *types.Func
		decl   *ast.FuncDecl
		blocks bool
		why    string
	}
	var fns []*funcInfo
	byObj := make(map[*types.Func]*funcInfo)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &funcInfo{fn: fn, decl: fd}
			fns = append(fns, fi)
			byObj[fn] = fi
		}
	}
	blockingCallee := func(call *ast.CallExpr) (bool, string) {
		fn := calleeAnyFunc(pass.Info, call)
		if fn == nil {
			return false, ""
		}
		if fi, ok := byObj[fn]; ok {
			return fi.blocks, fi.why
		}
		var fact CtxAware
		if pass.ImportObjectFact(fn, &fact) && fact.BlocksUncancellably {
			return true, fact.Why
		}
		return false, ""
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range fns {
			if fi.blocks {
				continue
			}
			site, why := firstUncancellableSite(env, fi.decl.Body, blockingCallee)
			if site.IsValid() {
				fi.blocks = true
				fi.why = why
				changed = true
			}
		}
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].fn.FullName() < fns[j].fn.FullName() })
	for _, fi := range fns {
		pass.ExportObjectFact(fi.fn, &CtxAware{BlocksUncancellably: fi.blocks, Why: fi.why})
	}

	// Reporting is scoped and skips test variants: tests park on channels
	// deliberately (the testing framework is their watchdog).
	if pass.TestVariant || !isCtxflowPackage(pass.Pkg.Path()) {
		return
	}
	for _, fi := range fns {
		reportCtxFlow(env, fi.decl, blockingCallee)
	}
}

// firstUncancellableSite scans a function body and returns the position of
// the first blocking channel op with no cancellation path (or a call to a
// function with that property), for the fact fixpoint. Go-statement bodies
// are excluded: the spawned goroutine parks, not the caller.
func firstUncancellableSite(env *ctxEnv, body *ast.BlockStmt, blockingCallee func(*ast.CallExpr) (bool, string)) (token.Pos, string) {
	found := token.NoPos
	why := ""
	record := func(pos token.Pos, w string) {
		if !found.IsValid() || pos < found {
			found, why = pos, w
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if found.IsValid() {
			return false
		}
		switch s := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.SelectStmt:
			if !selectCancellable(env, s) {
				record(s.Select, "select with no default and no cancellation arm")
			}
			return true
		case *ast.RangeStmt:
			if env.rangeUnending(s) {
				record(s.For, "range over a channel the package never closes")
			}
		case *ast.SendStmt:
			if !env.sendExempt(s) && !insideSelectComm(body, s) {
				record(s.Arrow, "bare send with no cancellation path")
			}
		case *ast.UnaryExpr:
			if s.Op == token.ARROW && !env.recvExempt(s.X) && !insideSelectComm(body, s) {
				record(s.OpPos, "bare receive with no cancellation path")
			}
		case *ast.CallExpr:
			if blocks, w := blockingCallee(s); blocks {
				record(s.Lparen, w)
			}
		}
		return true
	})
	return found, why
}

// reportCtxFlow reports every uncancellable blocking site in a scoped
// function: selects without a cancellation arm, ranges over channels the
// package never closes, bare sends/receives outside selects, and calls into
// out-of-scope helpers that park uncancellably.
func reportCtxFlow(env *ctxEnv, fd *ast.FuncDecl, blockingCallee func(*ast.CallExpr) (bool, string)) {
	pass := env.pass
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.SelectStmt:
			if selectCancellable(env, s) {
				return true
			}
			pass.Reportf(s.Select,
				"select with no default and no cancellation arm; a goroutine parked here cannot be shut down")
		case *ast.RangeStmt:
			if env.rangeUnending(s) {
				pass.Reportf(s.For,
					"range over channel %s, which is never closed in the package; the loop cannot terminate", types.ExprString(s.X))
			}
		case *ast.SendStmt:
			if !env.sendExempt(s) && !insideSelectComm(fd.Body, s) {
				pass.Reportf(s.Arrow,
					"blocking send outside a select; if the receiver is gone this goroutine parks forever — select with a ctx.Done/done arm")
			}
		case *ast.UnaryExpr:
			if s.Op == token.ARROW && !env.recvExempt(s.X) && !insideSelectComm(fd.Body, s) {
				pass.Reportf(s.OpPos,
					"blocking receive outside a select; if the sender is gone this goroutine parks forever — select with a ctx.Done/done arm")
			}
		case *ast.CallExpr:
			fn := calleeAnyFunc(pass.Info, s)
			if fn == nil || fn.Pkg() == nil || isCtxflowPackage(fn.Pkg().Path()) {
				return true // in-scope callees are reported at their own site
			}
			if blocks, why := blockingCallee(s); blocks {
				pass.Reportf(s.Lparen,
					"call to %s, which can block uncancellably (%s)", fn.FullName(), why)
			}
		}
		return true
	})
}

// sendExempt reports whether a send statement cannot park forever: the
// channel's type is provably buffered at every make site in the package, or
// the channel is a cancellation-style closed channel (sending on one is a
// bug, but not this rule's bug).
func (env *ctxEnv) sendExempt(s *ast.SendStmt) bool {
	t := env.pass.Info.TypeOf(s.Chan)
	if t == nil {
		return true // undertyped; don't guess
	}
	return env.bufferedType[t.String()]
}

// rangeUnending reports whether s ranges over a channel that no close() in
// the package can end: a timer channel or a channel never closed here.
func (env *ctxEnv) rangeUnending(s *ast.RangeStmt) bool {
	t := env.pass.Info.TypeOf(s.X)
	if t == nil {
		return false
	}
	if _, ok := t.Underlying().(*types.Chan); !ok {
		return false
	}
	obj := chanExprObj(env.pass.Info, s.X)
	return obj == nil || !env.closedObjs[obj]
}

// recvExempt reports whether a receive expression carries its own
// cancellation semantics: ctx.Done()-style method calls, channels closed in
// this package (a closed channel never blocks), and timer channels.
func (env *ctxEnv) recvExempt(x ast.Expr) bool {
	x = ast.Unparen(x)
	if call, ok := x.(*ast.CallExpr); ok {
		if isDoneCall(env.pass.Info, call) || isTimeAfterCall(env.pass.Info, call) {
			return true
		}
	}
	if obj := chanExprObj(env.pass.Info, x); obj != nil && env.closedObjs[obj] {
		return true
	}
	if t := env.pass.Info.TypeOf(x); t != nil && isTimerChan(t) {
		return true
	}
	return false
}

// selectCancellable reports whether the select can always make progress or
// be interrupted: a default clause, or at least one receive arm on a
// cancellation-style channel (ctx.Done(), a closed done channel, a timer).
func selectCancellable(env *ctxEnv, sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			return true // default
		}
		var recv ast.Expr
		switch comm := cc.Comm.(type) {
		case *ast.ExprStmt:
			recv = comm.X
		case *ast.AssignStmt:
			if len(comm.Rhs) == 1 {
				recv = comm.Rhs[0]
			}
		}
		if recv == nil {
			continue
		}
		ue, ok := ast.Unparen(recv).(*ast.UnaryExpr)
		if !ok || ue.Op != token.ARROW {
			continue
		}
		if env.recvExempt(ue.X) {
			return true
		}
	}
	return false
}

// insideSelectComm reports whether node is (part of) a communication clause
// of some select in body — those ops are governed by the select's own
// cancellability, checked separately.
func insideSelectComm(body *ast.BlockStmt, node ast.Node) bool {
	inside := false
	ast.Inspect(body, func(n ast.Node) bool {
		if inside {
			return false
		}
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		for _, c := range sel.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok || cc.Comm == nil {
				continue
			}
			ast.Inspect(cc.Comm, func(m ast.Node) bool {
				if m == node {
					inside = true
				}
				return !inside
			})
		}
		return true
	})
	return inside
}

// isDoneCall matches calls to a niladic method named Done returning a
// receive-only channel — context.Context.Done and the repo's own
// done-accessor convention.
func isDoneCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeAnyFunc(info, call)
	if fn == nil || fn.Name() != "Done" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return false
	}
	_, isChan := sig.Results().At(0).Type().Underlying().(*types.Chan)
	return isChan
}

// isTimeAfterCall matches time.After(...) / time.Tick(...).
func isTimeAfterCall(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeAnyFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return false
	}
	return fn.Name() == "After" || fn.Name() == "Tick"
}

// isTimerChan reports whether t is a channel of time.Time (time.Timer.C,
// time.Ticker.C, or an injected fake clock's channel).
func isTimerChan(t types.Type) bool {
	ch, ok := t.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	named, ok := ch.Elem().(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "time" && named.Obj().Name() == "Time"
}

// chanExprObj resolves the variable a channel expression names, if any.
func chanExprObj(info *types.Info, x ast.Expr) types.Object {
	switch e := ast.Unparen(x).(type) {
	case *ast.Ident:
		if v, ok := info.Uses[e].(*types.Var); ok {
			return v
		}
	case *ast.SelectorExpr:
		if v, ok := info.Uses[e.Sel].(*types.Var); ok {
			return v
		}
	}
	return nil
}

// bufferedChanTypes collects channel types whose every make site in the
// package has a constant capacity >= 1.
func bufferedChanTypes(pass *Pass) map[string]bool {
	status := make(map[string]int) // 1 = all buffered so far, 2 = poisoned
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isMakeChan(pass, call) {
				return true
			}
			t := pass.Info.TypeOf(call.Args[0])
			if t == nil {
				return true
			}
			buffered, known := makeChanBuffered(pass, call)
			key := t.String()
			if known && buffered {
				if status[key] == 0 {
					status[key] = 1
				}
			} else {
				status[key] = 2
			}
			return true
		})
	}
	out := make(map[string]bool)
	for key, st := range status {
		if st == 1 {
			out[key] = true
		}
	}
	return out
}

// closedChanObjs collects every channel variable passed to close() in the
// package.
func closedChanObjs(pass *Pass) map[types.Object]bool {
	out := make(map[types.Object]bool)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok || id.Name != "close" {
				return true
			}
			if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			if obj := chanExprObj(pass.Info, call.Args[0]); obj != nil {
				out[obj] = true
			}
			return true
		})
	}
	return out
}

// isMakeChan reports whether call is make(chan T[, n]).
func isMakeChan(pass *Pass, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "make" || len(call.Args) == 0 {
		return false
	}
	if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return false
	}
	t := pass.Info.TypeOf(call.Args[0])
	if t == nil {
		return false
	}
	_, isChan := t.Underlying().(*types.Chan)
	return isChan
}

// makeChanBuffered reports whether the make site has a constant capacity > 0;
// known is false when the capacity is a non-constant expression.
func makeChanBuffered(pass *Pass, call *ast.CallExpr) (buffered, known bool) {
	if len(call.Args) < 2 {
		return false, true
	}
	tv, ok := pass.Info.Types[call.Args[1]]
	if !ok || tv.Value == nil {
		return false, false
	}
	return tv.Value.String() != "0", true
}
