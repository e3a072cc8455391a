package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// simPackages are the seed-pure simulation packages: everything the paper's
// §6 figures are computed from, and everything whose output must replay
// byte-identically under a seed. Code here must be a pure function of its
// inputs and an injected seed — a wall-clock read, the process-global rand
// source, crypto entropy or the process id makes a run irreproducible in a
// way no test can pin down.
// internal/event is included because its stream must be byte-identical
// across same-seed runs: events carry virtual time only, and a wall-clock
// read anywhere in the recorder path would silently break the golden traces.
// internal/measuredb is included for the same reason: same-seed runs must
// produce byte-identical WAL and snapshot files, so nothing time- or
// map-order-dependent may reach the encoder.
// internal/chaos is included because its whole contract is that the fault
// plan replays byte-identically from a seed: a wall-clock read in the
// schedule path would break same-seed trace comparison. internal/fault is
// included for the same reason: its injector draws from a seeded stream and
// mirrors each fault as an event that no golden trace pins.
// internal/sample is included because its estimators turn a candidate's
// samples into the estimate every figure ranks by: they must be pure
// functions of those samples.
var simPackages = []string{
	"paratune/internal/baseline",
	"paratune/internal/chaos",
	"paratune/internal/cluster",
	"paratune/internal/core",
	"paratune/internal/dist",
	"paratune/internal/event",
	"paratune/internal/experiment",
	"paratune/internal/fault",
	"paratune/internal/measuredb",
	"paratune/internal/noise",
	"paratune/internal/objective",
	"paratune/internal/sample",
	"paratune/internal/stats",
}

// isSimPackage reports whether path is a simulation package, a subpackage of
// one, or the external test package (path_test) of either.
func isSimPackage(path string) bool {
	path = strings.TrimSuffix(path, "_test")
	for _, p := range simPackages {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// Determinism flags nondeterminism sources that break seeded reproduction.
// Inside simulation packages it flags every wall-clock read
// (time.Now/Since/Until), every use of crypto/rand and every process-id read
// (os.Getpid/Getppid), wherever the value goes: a clock laundered through a
// local or a helper before it seeds an RNG is reported at the read.
// Everywhere it flags process-global math/rand calls, and RNG sources seeded
// from the wall clock. Genuinely wall-clock code (TCP deadlines, progress
// logging) lives outside the simulation packages or carries a
// //paralint:allow determinism annotation.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "flag wall-clock time, entropy, pids and unseeded randomness in seed-pure code",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) {
	sim := isSimPackage(pass.Pkg.Path())
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && sim {
				if obj := pass.Info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "crypto/rand" {
					pass.Reportf(sel.Pos(),
						"crypto/rand.%s in simulation package %s draws irreproducible entropy; thread a seed",
						obj.Name(), pass.Pkg.Path())
				}
				return true
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if sim && isWallClockFunc(fn.Name()) {
					pass.Reportf(call.Pos(),
						"wall-clock time.%s in simulation package %s; inject a clock or thread a seed",
						fn.Name(), pass.Pkg.Path())
				}
			case "os":
				if sim && (fn.Name() == "Getpid" || fn.Name() == "Getppid") {
					pass.Reportf(call.Pos(),
						"process id os.%s in simulation package %s differs per run; thread a seed",
						fn.Name(), pass.Pkg.Path())
				}
			case "math/rand", "math/rand/v2":
				if strings.HasPrefix(fn.Name(), "New") {
					// Constructors are the seeded idiom — unless the seed
					// itself comes from the wall clock. Inside simulation
					// packages the wall-clock read is already reported above.
					if !sim {
						if clock := findWallClockCall(pass.Info, call); clock != nil {
							pass.Reportf(clock.Pos(),
								"RNG seeded from the wall clock; accept a seed or rand.Source so behaviour is reproducible")
						}
					}
				} else {
					pass.Reportf(call.Pos(),
						"global math/rand %s draws from the shared process-wide source; use a seeded *rand.Rand",
						fn.Name())
				}
			}
			return true
		})
	}
}

func isWallClockFunc(name string) bool {
	return name == "Now" || name == "Since" || name == "Until"
}

// findWallClockCall returns the first time.Now/Since/Until call in the
// argument subtree of call, or nil.
func findWallClockCall(info *types.Info, call *ast.CallExpr) ast.Node {
	var found ast.Node
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if found != nil {
				return false
			}
			inner, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, inner)
			if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "time" && isWallClockFunc(fn.Name()) {
				found = inner
				return false
			}
			return true
		})
		if found != nil {
			break
		}
	}
	return found
}

// calleeFunc resolves the package-level function a call dispatches to, or
// nil for methods, builtins, and indirect calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := info.Uses[id].(*types.Func)
	if !ok {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil
	}
	return fn
}
