package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// StageErr keeps the engine's failure taxonomy intact: everything the
// engine returns to callers is a typed *StageError (which stage, which
// experiment, which matrix), so returning a bare errors.New/fmt.Errorf
// from an engine function loses the classification the Report relies
// on. Where errors are wrapped, fmt.Errorf must use %w so errors.Is /
// errors.As keep seeing the cause.
var StageErr = &Analyzer{
	Name:  "stageerr",
	Scope: []string{"internal/engine"},
	Run:   runStageErr,
}

func runStageErr(pass *Pass) {
	for _, file := range pass.Files() {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkErrorfWrap(pass, n)
			case *ast.FuncDecl:
				if n.Body != nil {
					checkAdHocReturns(pass, n.Type, n.Body)
				}
			case *ast.FuncLit:
				checkAdHocReturns(pass, n.Type, n.Body)
			}
			return true
		})
	}
}

// checkErrorfWrap flags fmt.Errorf calls that interpolate an error
// value without the %w verb.
func checkErrorfWrap(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.TypesInfo(), call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok {
		return
	}
	format, err := strconv.Unquote(lit.Value)
	if err != nil || strings.Contains(format, "%w") {
		return
	}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	for _, arg := range call.Args[1:] {
		t := pass.TypesInfo().TypeOf(arg)
		if t == nil {
			continue
		}
		if types.Implements(t, errIface) || types.Implements(types.NewPointer(t), errIface) {
			pass.Reportf(call.Pos(),
				"fmt.Errorf interpolates an error without %%w; wrap it so errors.Is/As see the cause")
			return
		}
	}
}

// checkAdHocReturns flags `return fmt.Errorf(...)` / `return
// errors.New(...)` in error positions of engine functions: the value
// crossing the engine boundary must be a *StageError.
func checkAdHocReturns(pass *Pass, ftype *ast.FuncType, body *ast.BlockStmt) {
	if ftype.Results == nil {
		return
	}
	errIdx := map[int]bool{}
	pos := 0
	for _, field := range ftype.Results.List {
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		t := pass.TypesInfo().TypeOf(field.Type)
		for i := 0; i < n; i++ {
			if t != nil && isErrorType(t) {
				errIdx[pos+i] = true
			}
		}
		pos += n
	}
	if len(errIdx) == 0 {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // nested closures are checked on their own
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for i, res := range ret.Results {
			if !errIdx[i] {
				continue
			}
			if name := adHocErrorCall(pass, res); name != "" {
				pass.Reportf(res.Pos(),
					"engine returns an ad-hoc %s error; wrap it in a typed *StageError so callers keep the stage/experiment classification", name)
			}
		}
		return true
	})
}

// adHocErrorCall matches a direct errors.New or fmt.Errorf call.
func adHocErrorCall(pass *Pass, e ast.Expr) string {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return ""
	}
	fn := calleeFunc(pass.TypesInfo(), call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	switch {
	case fn.Pkg().Path() == "errors" && fn.Name() == "New":
		return "errors.New"
	case fn.Pkg().Path() == "fmt" && fn.Name() == "Errorf":
		return "fmt.Errorf"
	}
	return ""
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return t == types.Universe.Lookup("error").Type()
	}
	return named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
