package lint

import (
	"go/ast"
	"go/types"

	"planar/internal/lint/analysis"
)

// Tickerleak flags timer/ticker patterns that leak runtime resources.
// The long-lived loops in this codebase — committer goroutines, the
// replica tailer, benchmark drivers — make these leaks cumulative:
//
//   - time.Tick has no Stop handle, so its ticker lives for the life
//     of the process; it is flagged unconditionally.
//   - time.After inside a loop allocates a fresh timer every
//     iteration; until Go's timers became collectable this pinned
//     memory for the full duration, and it still churns an allocation
//     plus runtime timer per pass — hoist a NewTimer and Reset it
//     (pager.Writer.run is the model) or use a ticker.
//   - a time.NewTicker result bound to a local that is never stopped
//     in the enclosing function leaks its runtime timer. If the
//     ticker escapes — returned, stored, passed along — ownership may
//     transfer and the analyzer stays quiet.
//   - a ticker created inside a loop whose only Stop is deferred
//     piles up one live ticker per iteration until the function
//     returns; the Stop must run in the loop body.
//
// Function literals are checked as their own functions: a ticker
// created in a goroutine body must be stopped there (or escape).
var Tickerleak = &analysis.Analyzer{
	Name: "tickerleak",
	Doc:  "flag time.Tick, per-iteration time.After, and tickers without a reachable Stop",
	Run:  runTickerleak,
}

func runTickerleak(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				checkTickerFunc(pass, body)
			}
			return true
		})
	}
	return nil
}

// tickerBinding is one `t := time.NewTicker(...)` (or var form) local.
type tickerBinding struct {
	id     *ast.Ident
	obj    types.Object
	inLoop bool
}

// checkTickerFunc analyzes one function body. The reporting walk skips
// nested literals (they get their own pass); the usage walk descends
// into them, because a `defer func() { t.Stop() }()` closure still
// stops the outer function's ticker.
func checkTickerFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	var bindings []tickerBinding
	var stack []ast.Node
	loopDepth := 0
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			switch top.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				loopDepth--
			}
			return true
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			loopDepth++
		case *ast.CallExpr:
			if f := calleeFunc(pass.TypesInfo, n); f != nil {
				switch funcKey(f) {
				case "time.Tick":
					pass.Reportf(n.Pos(), "time.Tick has no Stop handle and leaks its ticker; use time.NewTicker with a Stop")
				case "time.After":
					if loopDepth > 0 {
						pass.Reportf(n.Pos(), "time.After in a loop starts a new timer every iteration; hoist a time.NewTimer (Reset per pass) or a ticker")
					}
				}
			}
		case *ast.AssignStmt:
			if b, ok := tickerAssign(pass, n.Lhs, n.Rhs); ok {
				b.inLoop = loopDepth > 0
				bindings = append(bindings, b)
			}
		case *ast.ValueSpec:
			if b, ok := tickerAssign(pass, identExprs(n.Names), n.Values); ok {
				b.inLoop = loopDepth > 0
				bindings = append(bindings, b)
			}
		}
		stack = append(stack, n)
		return true
	})
	for _, b := range bindings {
		stopped, stoppedInline, escapes := tickerUsage(pass, body, b.obj)
		switch {
		case escapes:
			// Ownership may transfer with the value; stay quiet.
		case !stopped:
			pass.Reportf(b.id.Pos(), "ticker %s is never stopped; call %s.Stop when the loop exits", b.id.Name, b.id.Name)
		case b.inLoop && !stoppedInline:
			pass.Reportf(b.id.Pos(), "ticker %s is created inside a loop but only stopped by defer, which runs at function exit; stop it in the loop body", b.id.Name)
		}
	}
}

// tickerAssign recognises a single-value binding of time.NewTicker to
// a named identifier.
func tickerAssign(pass *analysis.Pass, lhs, rhs []ast.Expr) (tickerBinding, bool) {
	if len(lhs) != 1 || len(rhs) != 1 {
		return tickerBinding{}, false
	}
	call, ok := ast.Unparen(rhs[0]).(*ast.CallExpr)
	if !ok {
		return tickerBinding{}, false
	}
	f := calleeFunc(pass.TypesInfo, call)
	if f == nil || funcKey(f) != "time.NewTicker" {
		return tickerBinding{}, false
	}
	id, ok := lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return tickerBinding{}, false
	}
	obj := pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = pass.TypesInfo.Uses[id]
	}
	if obj == nil {
		return tickerBinding{}, false
	}
	return tickerBinding{id: id, obj: obj}, true
}

// identExprs widens a ValueSpec's name list to []ast.Expr.
func identExprs(ids []*ast.Ident) []ast.Expr {
	out := make([]ast.Expr, len(ids))
	for i, id := range ids {
		out[i] = id
	}
	return out
}

// tickerUsage scans every use of the ticker object in body (including
// nested literals — closures capture), classifying them: a .Stop
// selection counts as stopped (stoppedInline when it is not under a
// defer), a .C/.Reset/other selection is neutral, and anything else —
// return, argument, reassignment, struct store — is an escape.
func tickerUsage(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object) (stopped, stoppedInline, escapes bool) {
	var stack []ast.Node
	deferDepth := 0
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if _, ok := top.(*ast.DeferStmt); ok {
				deferDepth--
			}
			return true
		}
		if id, ok := n.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
			var parent ast.Node
			if len(stack) > 0 {
				parent = stack[len(stack)-1]
			}
			if sel, ok := parent.(*ast.SelectorExpr); ok && sel.X == id {
				if sel.Sel.Name == "Stop" {
					stopped = true
					if deferDepth == 0 {
						stoppedInline = true
					}
				}
			} else {
				escapes = true
			}
		}
		if _, ok := n.(*ast.DeferStmt); ok {
			deferDepth++
		}
		stack = append(stack, n)
		return true
	})
	return stopped, stoppedInline, escapes
}
