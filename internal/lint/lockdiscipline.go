package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// LockDiscipline enforces the repo's mutex convention: in a struct, a
// sync.Mutex/RWMutex field guards every field declared after it. A method
// that touches a guarded field must either acquire the mutex somewhere in
// its body or declare, via the ...Locked naming convention, that its caller
// already holds it. Fields that are immutable after construction belong
// above the mutex, where the analyzer (and the reader) knows they need no
// lock.
//
// The check is deliberately coarse — it does not track lock state through
// control flow — so it catches the dangerous shape (a method with no idea a
// lock exists) without false-flagging unlock/relock patterns.
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "methods touching mutex-guarded fields must lock or be ...Locked",
	Run:  runLockDiscipline,
}

// guardSet describes a struct's mutex and the fields it guards.
type guardSet struct {
	mutexField string // field name; "Mutex"/"RWMutex" when embedded
	embedded   bool
	guarded    map[string]bool
}

func runLockDiscipline(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				continue // caller-holds-lock convention
			}
			recv := fd.Recv.List[0]
			if len(recv.Names) == 0 || recv.Names[0].Name == "_" {
				continue
			}
			recvObj, ok := pass.Info.Defs[recv.Names[0]].(*types.Var)
			if !ok {
				continue
			}
			gs := structGuards(recvObj.Type())
			if gs == nil {
				continue
			}
			checkMethod(pass, fd, recvObj, gs)
		}
	}
}

// structGuards returns the guard set for a (possibly pointer) named struct
// type with a mutex field, or nil.
func structGuards(t types.Type) *guardSet {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	mutexIdx := -1
	var gs guardSet
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if mutexIdx < 0 {
			if isMutexType(f.Type()) {
				mutexIdx = i
				gs.mutexField = f.Name()
				gs.embedded = f.Embedded()
				gs.guarded = make(map[string]bool)
			}
			continue
		}
		gs.guarded[f.Name()] = true
	}
	if mutexIdx < 0 || len(gs.guarded) == 0 {
		return nil
	}
	return &gs
}

func isMutexType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex")
}

// checkMethod reports the first guarded-field access in a method that never
// acquires the receiver's mutex.
func checkMethod(pass *Pass, fd *ast.FuncDecl, recvObj *types.Var, gs *guardSet) {
	locks := false
	var firstAccess *ast.SelectorExpr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isLockAcquire(pass.Info, n, recvObj, gs) {
				locks = true
			}
		case *ast.SelectorExpr:
			base, ok := ast.Unparen(n.X).(*ast.Ident)
			if !ok || pass.Info.Uses[base] != recvObj {
				return true
			}
			if gs.guarded[n.Sel.Name] && firstAccess == nil {
				firstAccess = n
			}
		}
		return true
	})
	if firstAccess != nil && !locks {
		pass.Reportf(firstAccess.Pos(),
			"%s accesses %s.%s (guarded by %s) without holding the lock; acquire %s or use the ...Locked naming convention",
			fd.Name.Name, recvObj.Name(), firstAccess.Sel.Name, gs.mutexField, gs.mutexField)
	}
}

// isLockAcquire matches recv.mu.Lock(), recv.mu.RLock(), and — for an
// embedded mutex — recv.Lock()/recv.RLock().
func isLockAcquire(info *types.Info, call *ast.CallExpr, recvObj *types.Var, gs *guardSet) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
		return false
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		// recv.Lock(): only an embedded mutex promotes Lock onto the receiver.
		return gs.embedded && info.Uses[x] == recvObj
	case *ast.SelectorExpr:
		base, ok := ast.Unparen(x.X).(*ast.Ident)
		return ok && info.Uses[base] == recvObj && x.Sel.Name == gs.mutexField
	}
	return false
}
