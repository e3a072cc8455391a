package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// LockSet is the cross-package fact listing the lock classes a function may
// acquire, directly or through any call it makes. The lockorder analyzer uses
// it to extend the acquisition graph through call chains: holding A while
// calling a function whose LockSet contains B is an A→B edge even when the
// Lock() call is three packages away.
type LockSet struct {
	Locks []string
}

// AFact marks LockSet as a fact.
func (*LockSet) AFact() {}

func (l *LockSet) String() string { return "LockSet(" + strings.Join(l.Locks, ",") + ")" }

// LockOrder builds the whole-program lock-acquisition graph — one node per
// lock class (a sync.Mutex/RWMutex struct field or package-level variable),
// one edge per "B acquired while A held" site, including acquisitions reached
// through calls via LockSet facts — and flags:
//
//   - any cycle in the graph, with the witness acquisition path printed: two
//     goroutines traversing a cycle's edges in different positions deadlock;
//   - re-acquisition of a lock class already held: sync.Mutex does not
//     re-enter, and between two instances of one class no order is provable;
//   - violations of the declared total order: //paralint:lockrank N on a
//     mutex declaration assigns a rank, and every edge must go from a lower
//     rank to a strictly higher one.
//
// Locks are classified per (type, field) — instance-insensitive — which is
// exactly the granularity a sharded session table needs: the rank declares
// the order every shard must follow.
var LockOrder = &Analyzer{
	Name:      "lockorder",
	Doc:       "lock acquisition graph must be acyclic and respect declared //paralint:lockrank order",
	FactTypes: []Fact{(*LockSet)(nil)},
	Run:       runLockOrder,
}

const lockrankPrefix = "paralint:lockrank"

// lockClass is one lock identity: the declaring field/var object plus the
// stable cross-package key ("harmony.Server.mu").
type lockClass struct {
	obj types.Object
	key string
}

func runLockOrder(pass *Pass) {
	declareLockRanks(pass)

	// Phase 1: LockSet facts, to a fixpoint so wrappers propagate. A lock
	// acquired inside a `go` statement's body belongs to the launched
	// goroutine, not to this function's acquisition order, so GoStmt
	// subtrees are excluded.
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
	local := make(map[*types.Func]map[string]bool)
	lockSetOf := func(fn *types.Func) []string {
		if set, ok := local[fn]; ok {
			keys := make([]string, 0, len(set))
			for k := range set {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			return keys
		}
		var ls LockSet
		if pass.ImportObjectFact(fn, &ls) {
			return ls.Locks
		}
		return nil
	}
	for fn, fd := range decls {
		set := make(map[string]bool)
		inspectSkippingGo(fd.Body, func(n ast.Node) {
			if call, ok := n.(*ast.CallExpr); ok {
				if lc, op, _ := lockOpClass(pass, call); op > 0 && lc != nil {
					set[lc.key] = true
				}
			}
		})
		local[fn] = set
	}
	for changed := true; changed; {
		changed = false
		for fn, fd := range decls {
			set := local[fn]
			inspectSkippingGo(fd.Body, func(n ast.Node) {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return
				}
				callee := calleeAnyFunc(pass.Info, call)
				if callee == nil || callee == fn {
					return
				}
				for _, k := range lockSetOf(callee) {
					if !set[k] {
						set[k] = true
						changed = true
					}
				}
			})
		}
	}
	for fn, set := range local {
		if len(set) == 0 {
			continue
		}
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		pass.ExportObjectFact(fn, &LockSet{Locks: keys})
	}

	// Phase 2: statement-level interpretation of every function, recording
	// an edge for each acquisition made while another lock class is held.
	for _, fd := range decls {
		walkLockOrder(pass, fd.Body.List, map[string]token.Pos{}, lockSetOf)
	}
}

// inspectSkippingGo is ast.Inspect minus GoStmt subtrees (the argument
// expressions of a go call still evaluate in the current goroutine, but for
// lock-order purposes a call buried in an argument list while holding a lock
// is recorded by the interpreter walk, not the fact scan).
func inspectSkippingGo(body ast.Node, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}

// lockOpClass classifies call as a lock operation on a resolvable lock class,
// returning the class, +1 (acquire) / -1 (release) / 0 (not a lock op), and
// whether it is a read-side op. RLock counts as an acquire: a read-lock cycle
// still deadlocks against a writer waiting in between.
func lockOpClass(pass *Pass, call *ast.CallExpr) (*lockClass, int, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, 0, false
	}
	var op int
	read := false
	switch sel.Sel.Name {
	case "Lock":
		op = 1
	case "RLock":
		op, read = 1, true
	case "Unlock":
		op = -1
	case "RUnlock":
		op, read = -1, true
	default:
		return nil, 0, false
	}
	fn := calleeAnyFunc(pass.Info, call)
	if fn == nil {
		return nil, 0, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !isMutexType(sig.Recv().Type()) {
		return nil, 0, false
	}
	return resolveLockClass(pass, sel.X), op, read
}

// resolveLockClass maps the mutex operand expression to its lock class:
// a struct field ("pkg.Type.field"), a promoted embedded mutex, or a
// package-level variable ("pkg.var"). Local mutex variables and dynamic
// expressions have no stable class and return nil.
func resolveLockClass(pass *Pass, x ast.Expr) *lockClass {
	x = ast.Unparen(x)
	switch e := x.(type) {
	case *ast.Ident:
		obj := pass.Info.Uses[e]
		v, ok := obj.(*types.Var)
		if !ok || v.Pkg() == nil {
			return nil
		}
		if isMutexType(v.Type()) {
			if v.Parent() == v.Pkg().Scope() {
				// Package-level mutex variable.
				return &lockClass{obj: v, key: lockDisplayPath(v.Pkg().Path()) + "." + v.Name()}
			}
			return nil // local mutex: no cross-function identity
		}
		// recv.Lock() via an embedded mutex: the class is the embedded field.
		return embeddedMutexClass(v.Type())
	case *ast.SelectorExpr:
		selInfo, ok := pass.Info.Selections[e]
		if !ok {
			// Qualified package-level var: pkg.Mu.Lock().
			if v, ok := pass.Info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() && isMutexType(v.Type()) {
				return &lockClass{obj: v, key: lockDisplayPath(v.Pkg().Path()) + "." + v.Name()}
			}
			return nil
		}
		field, ok := selInfo.Obj().(*types.Var)
		if !ok || !field.IsField() || field.Pkg() == nil {
			return nil
		}
		owner := namedRecvName(selInfo.Recv())
		if owner == "" {
			return nil
		}
		if isMutexType(field.Type()) {
			return &lockClass{obj: field, key: lockDisplayPath(field.Pkg().Path()) + "." + owner + "." + field.Name()}
		}
		// v.inner.Lock() where inner embeds a mutex.
		return embeddedMutexClass(field.Type())
	}
	return nil
}

// embeddedMutexClass finds the embedded sync.Mutex/RWMutex field of a
// (possibly pointer) named struct type.
func embeddedMutexClass(t types.Type) *lockClass {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	owner := namedRecvName(t)
	st, ok := t.Underlying().(*types.Struct)
	if !ok || owner == "" {
		return nil
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Embedded() && isMutexType(f.Type()) && f.Pkg() != nil {
			return &lockClass{obj: f, key: lockDisplayPath(f.Pkg().Path()) + "." + owner + "." + f.Name()}
		}
	}
	return nil
}

// namedRecvName returns the named-type name behind t (derefencing one
// pointer), or "".
func namedRecvName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// lockDisplayPath shortens an import path to its human-readable lock-class
// prefix: paratune/internal/harmony -> harmony. Test-variant package paths
// collapse onto the pure package so both analyses feed one graph.
func lockDisplayPath(path string) string {
	path = strings.TrimSuffix(path, "_test")
	if i := strings.LastIndex(path, "/internal/"); i >= 0 {
		return path[i+len("/internal/"):]
	}
	return path
}

// declareLockRanks registers //paralint:lockrank N declarations: a trailing
// comment on a mutex field or package-level mutex var declaration, or a
// standalone comment on the line above it. Dangling directives are reported —
// a rank that silently binds to nothing is worse than none.
func declareLockRanks(pass *Pass) {
	type rankAt struct {
		rank int
		pos  token.Pos
	}
	byLine := make(map[string]map[int]rankAt) // file -> target line -> rank
	used := make(map[string]map[int]bool)
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !isDirective(c.Text, lockrankPrefix) {
					continue
				}
				text := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), lockrankPrefix))
				rank, err := strconv.Atoi(strings.Fields(text + " x")[0])
				if err != nil || text == "" {
					pass.ReportDirective(c.Pos(), "malformed %s directive: want %s <integer>", lockrankPrefix, lockrankPrefix)
					continue
				}
				pos := pass.Fset.Position(c.Pos())
				line := pos.Line
				if standaloneComment(pass.ctx.pkg, pos) {
					line++
				}
				if byLine[pos.Filename] == nil {
					byLine[pos.Filename] = make(map[int]rankAt)
					used[pos.Filename] = make(map[int]bool)
				}
				byLine[pos.Filename][line] = rankAt{rank: rank, pos: c.Pos()}
			}
		}
	}
	if len(byLine) == 0 {
		return
	}
	bind := func(lc *lockClass, declPos token.Pos) {
		p := pass.Fset.Position(declPos)
		if r, ok := byLine[p.Filename][p.Line]; ok {
			pass.facts.setLockRank(lc.key, r.rank, p)
			used[p.Filename][p.Line] = true
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					st, ok := sp.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						for _, name := range field.Names {
							if v, ok := pass.Info.Defs[name].(*types.Var); ok && isMutexType(v.Type()) && v.Pkg() != nil {
								lc := &lockClass{obj: v, key: lockDisplayPath(v.Pkg().Path()) + "." + sp.Name.Name + "." + v.Name()}
								bind(lc, name.Pos())
							}
						}
						if len(field.Names) == 0 { // embedded mutex
							if t := pass.Info.TypeOf(field.Type); t != nil && isMutexType(t) {
								if lc := embeddedMutexClassFromSpec(pass, sp); lc != nil {
									bind(lc, field.Pos())
								}
							}
						}
					}
				case *ast.ValueSpec:
					for _, name := range sp.Names {
						if v, ok := pass.Info.Defs[name].(*types.Var); ok && isMutexType(v.Type()) && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
							lc := &lockClass{obj: v, key: lockDisplayPath(v.Pkg().Path()) + "." + v.Name()}
							bind(lc, name.Pos())
						}
					}
				}
			}
		}
	}
	for file, lines := range byLine {
		for line, r := range lines {
			if !used[file][line] {
				pass.ReportDirective(r.pos, "%s directive does not annotate a sync.Mutex/RWMutex field or package-level variable", lockrankPrefix)
			}
		}
	}
}

// embeddedMutexClassFromSpec resolves the embedded-mutex class of the struct
// declared by sp.
func embeddedMutexClassFromSpec(pass *Pass, sp *ast.TypeSpec) *lockClass {
	tn, ok := pass.Info.Defs[sp.Name].(*types.TypeName)
	if !ok {
		return nil
	}
	return embeddedMutexClass(tn.Type())
}

// walkLockOrder interprets stmts, maintaining the held lock classes (key ->
// acquisition position), and records an acquisition-order edge for every lock
// class acquired — directly or via a call's LockSet — while another is held.
// defer Unlock holds to the end of the function, branches fork the held set,
// and go bodies start empty.
func walkLockOrder(pass *Pass, stmts []ast.Stmt, held map[string]token.Pos, lockSetOf func(*types.Func) []string) {
	fork := func() map[string]token.Pos {
		c := make(map[string]token.Pos, len(held))
		for k, v := range held {
			c[k] = v
		}
		return c
	}
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.GoStmt:
			// Argument expressions evaluate here under our locks; the body
			// runs on its own stack with none of them.
			for _, a := range s.Call.Args {
				lockOrderExpr(pass, a, held, lockSetOf)
			}
			if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
				walkLockOrder(pass, lit.Body.List, map[string]token.Pos{}, lockSetOf)
			}
			continue
		case *ast.BlockStmt:
			walkLockOrder(pass, s.List, held, lockSetOf)
			continue
		case *ast.IfStmt:
			if s.Init != nil {
				walkLockOrder(pass, []ast.Stmt{s.Init}, held, lockSetOf)
			}
			lockOrderExpr(pass, s.Cond, held, lockSetOf)
			walkLockOrder(pass, s.Body.List, fork(), lockSetOf)
			if s.Else != nil {
				walkLockOrder(pass, []ast.Stmt{s.Else}, fork(), lockSetOf)
			}
			continue
		case *ast.ForStmt:
			walkLockOrder(pass, s.Body.List, fork(), lockSetOf)
			continue
		case *ast.RangeStmt:
			lockOrderExpr(pass, s.X, held, lockSetOf)
			walkLockOrder(pass, s.Body.List, fork(), lockSetOf)
			continue
		case *ast.SwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkLockOrder(pass, cc.Body, fork(), lockSetOf)
				}
			}
			continue
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					walkLockOrder(pass, cc.Body, fork(), lockSetOf)
				}
			}
			continue
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					walkLockOrder(pass, cc.Body, fork(), lockSetOf)
				}
			}
			continue
		case *ast.DeferStmt:
			// defer mu.Unlock() keeps the lock held to the end, which the
			// held set already models by not releasing it. Any other
			// deferred call is approximated at the defer site with the
			// current held set (a defer under `lock; defer unlock` runs
			// before the unlock).
			if _, op, _ := lockOpClass(pass, s.Call); op < 0 {
				continue
			}
			lockOrderExpr(pass, s.Call, held, lockSetOf)
			continue
		}
		lockOrderExpr(pass, stmt, held, lockSetOf)
	}
}

// lockOrderExpr processes lock ops and calls inside one statement or
// expression in source order, mutating held and recording edges.
func lockOrderExpr(pass *Pass, n ast.Node, held map[string]token.Pos, lockSetOf func(*types.Func) []string) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.GoStmt:
			if lit, ok := ast.Unparen(m.Call.Fun).(*ast.FuncLit); ok {
				walkLockOrder(pass, lit.Body.List, map[string]token.Pos{}, lockSetOf)
			}
			return false
		case *ast.FuncLit:
			// A literal not launched via go is conservatively assumed to run
			// synchronously under the current locks (defer, callback).
			walkLockOrder(pass, m.Body.List, held, lockSetOf)
			return false
		case *ast.CallExpr:
			lc, op, _ := lockOpClass(pass, m)
			switch {
			case op > 0 && lc != nil:
				recordAcquire(pass, lc.key, m.Pos(), held, true)
				held[lc.key] = m.Pos()
			case op < 0 && lc != nil:
				delete(held, lc.key)
			case op == 0:
				if len(held) == 0 {
					return true
				}
				fn := calleeAnyFunc(pass.Info, m)
				if fn == nil {
					return true
				}
				for _, k := range lockSetOf(fn) {
					recordAcquire(pass, k, m.Pos(), held, false)
				}
			}
		}
		return true
	})
}

// recordAcquire registers edges held→key and reports same-class
// re-acquisition. direct distinguishes a literal Lock() call from an
// acquisition reached through a call's LockSet.
func recordAcquire(pass *Pass, key string, pos token.Pos, held map[string]token.Pos, direct bool) {
	position := pass.Fset.Position(pos)
	allowed := pass.suppressedAt(position)
	for from := range held {
		if from == key {
			if direct {
				pass.Reportf(pos, "acquires %s while an instance of %s is already held; sync mutexes do not re-enter and no order between instances is provable", key, key)
			} else {
				pass.Reportf(pos, "call may acquire %s while an instance of %s is already held; sync mutexes do not re-enter and no order between instances is provable", key, key)
			}
			continue
		}
		pass.facts.addLockEdge(lockEdge{From: from, To: key, Pos: position, Allowed: allowed})
		fromRank, okF := pass.facts.lockRank(from)
		toRank, okT := pass.facts.lockRank(key)
		if okF && okT && toRank <= fromRank {
			pass.Reportf(pos, "lock rank inversion: %s (rank %d) acquired while holding %s (rank %d); the declared //paralint:lockrank order requires strictly increasing ranks", key, toRank, from, fromRank)
		}
	}
}

// lockOrderCycles is the whole-program finalizer: once every package has
// contributed its edges, find cycles in the acquisition graph and mint one
// diagnostic per cycle at its lexicographically first unsuppressed edge,
// with the witness path printed. Runs after Run/Analyze complete so the
// result is independent of package scheduling.
func lockOrderCycles(fb *FactBase) []Diagnostic {
	edges := fb.sortedLockEdges()
	if os.Getenv("PARALINT_DEBUG_LOCKGRAPH") != "" {
		for _, e := range edges {
			fmt.Fprintf(os.Stderr, "EDGE %s -> %s @ %s allowed=%v\n", e.From, e.To, e.Pos, e.Allowed)
		}
	}
	adj := make(map[string][]lockEdge)
	for _, e := range edges {
		adj[e.From] = append(adj[e.From], e)
	}
	var out []Diagnostic
	for _, e := range edges {
		path := shortestLockPath(adj, e.To, e.From)
		if path == nil {
			continue
		}
		cycle := append([]lockEdge{e}, path...)
		key := canonicalCycleKey(cycle)
		if e.Allowed {
			continue
		}
		if fb.markCycleReported(key) {
			continue
		}
		var nodes []string
		var witness []string
		nodes = append(nodes, e.From)
		for _, ce := range cycle {
			nodes = append(nodes, ce.To)
			witness = append(witness, fmt.Sprintf("%s acquired at %s:%d while %s held",
				ce.To, filepath.Base(ce.Pos.Filename), ce.Pos.Line, ce.From))
		}
		out = append(out, Diagnostic{
			Pos:  e.Pos,
			Rule: LockOrder.Name,
			Message: fmt.Sprintf("lock order cycle: %s — potential deadlock (%s)",
				strings.Join(nodes, " -> "), strings.Join(witness, "; ")),
		})
	}
	return out
}

// shortestLockPath finds a minimal edge path from -> to via BFS, or nil.
func shortestLockPath(adj map[string][]lockEdge, from, to string) []lockEdge {
	type queued struct {
		node string
		path []lockEdge
	}
	visited := map[string]bool{from: true}
	queue := []queued{{node: from}}
	for len(queue) > 0 {
		q := queue[0]
		queue = queue[1:]
		for _, e := range adj[q.node] {
			if e.To == to {
				return append(append([]lockEdge(nil), q.path...), e)
			}
			if !visited[e.To] {
				visited[e.To] = true
				queue = append(queue, queued{node: e.To, path: append(append([]lockEdge(nil), q.path...), e)})
			}
		}
	}
	return nil
}

// canonicalCycleKey normalizes a cycle to a rotation-independent key so the
// same cycle discovered from different edges reports once.
func canonicalCycleKey(cycle []lockEdge) string {
	nodes := make([]string, len(cycle))
	for i, e := range cycle {
		nodes[i] = e.From
	}
	best := ""
	for i := range nodes {
		rot := strings.Join(append(append([]string(nil), nodes[i:]...), nodes[:i]...), "->")
		if best == "" || rot < best {
			best = rot
		}
	}
	return best
}
