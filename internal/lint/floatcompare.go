package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// floatComparePackages are the rank-ordering and statistics packages where a
// float == decides which candidate wins a comparison. There, exact equality
// is almost always a latent tie-handling bug: two estimates that differ only
// in the last ulp must be treated as a tie, not an ordering, or PRO's accept
// /reject decisions flip between platforms. Exact comparisons that are
// genuinely intended (collapsing identical samples in an ECDF) carry a
// //paralint:allow floatcompare annotation naming why.
var floatComparePackages = []string{
	"paratune/internal/baseline",
	"paratune/internal/core",
	"paratune/internal/sample",
	"paratune/internal/space",
	"paratune/internal/stats",
}

// FloatCompare flags ==/!= between floating-point operands in rank-ordering
// and stats packages. Comparisons against an exact zero (sentinel/unset
// checks) and NaN self-tests (x != x) are exempt. Test files are exempt
// wholesale: exact equality against a pinned constant is the golden-trace
// idiom, not a tie-handling bug.
var FloatCompare = &Analyzer{
	Name: "floatcompare",
	Doc:  "no ==/!= on floats in rank-ordering and stats code",
	Run:  runFloatCompare,
}

func runFloatCompare(pass *Pass) {
	if pass.TestVariant {
		return // exact equality against pinned goldens is the test idiom
	}
	path := pass.Pkg.Path()
	in := false
	for _, p := range floatComparePackages {
		if path == p || strings.HasPrefix(path, p+"/") {
			in = true
			break
		}
	}
	if !in {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
				return true
			}
			if !isFloat(pass.Info, bin.X) || !isFloat(pass.Info, bin.Y) {
				return true
			}
			if isExactZero(pass.Info, bin.X) || isExactZero(pass.Info, bin.Y) {
				return true // sentinel/unset check, not a rank decision
			}
			if isNaNSelfTest(pass.Info, bin) {
				return true
			}
			pass.Reportf(bin.OpPos,
				"float equality (%s) in rank/stats code; compare through a tolerance helper such as stats.ApproxEqual",
				bin.Op)
			return true
		})
	}
}

func isFloat(info *types.Info, e ast.Expr) bool {
	t := info.Types[e].Type
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func isExactZero(info *types.Info, e ast.Expr) bool {
	tv := info.Types[e]
	if tv.Value == nil {
		return false
	}
	v, ok := constant.Float64Val(tv.Value)
	return ok && v == 0
}

// isNaNSelfTest matches x != x / x == x on the same variable — the idiomatic
// NaN probe, which is exact by definition.
func isNaNSelfTest(info *types.Info, bin *ast.BinaryExpr) bool {
	x, ok1 := ast.Unparen(bin.X).(*ast.Ident)
	y, ok2 := ast.Unparen(bin.Y).(*ast.Ident)
	return ok1 && ok2 && info.Uses[x] != nil && info.Uses[x] == info.Uses[y]
}
