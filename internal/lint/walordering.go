package lint

import (
	"go/ast"
	"go/types"

	"planar/internal/lint/analysis"
)

// Walordering enforces the durability contract: every store mutation
// (core.Multi.Append/Update/Remove) in the serving layer must be
// paired with a journal step — a replog.Sequencer.Commit/CommitAt in
// the same function — so that no acknowledged write can be lost on
// restart. The check is scoped to internal/service, the only layer
// that owns both a store and a journal; core itself is
// storage-only and replay paths reconstruct state *from* the journal.
//
// Two escape hatches:
//
//   - a function literal passed to wal.Replay or Sequencer.ReadSegmentFrom
//     is a recovery callback — it re-applies already-journaled records
//     and is exempt;
//   - a function annotated with a `//planar:journaled` directive (doc
//     comment or the line above) declares that journaling happens in
//     its caller; use it for helpers that run under an already-open
//     commit. The obligation moves with the declaration: a call to
//     such a helper counts as a mutation where it is made.
var Walordering = &analysis.Analyzer{
	Name: "walordering",
	Doc:  "flag store mutations not paired with a WAL/sequencer journal step",
	Run:  runWalordering,
}

var walorderingScope = []string{
	"internal/service",
}

// walMutators are the store entry points that change durable state.
var walMutators = map[string]bool{
	"planar/internal/core.Multi.Append": true,
	"planar/internal/core.Multi.Update": true,
	"planar/internal/core.Multi.Remove": true,
}

// walJournals are the calls that make a mutation durable.
var walJournals = map[string]bool{
	"planar/internal/replog.Sequencer.Commit":      true,
	"planar/internal/replog.Sequencer.CommitAt":    true,
	"planar/internal/replog.Sequencer.CommitBatch": true,
}

// walReplayers take recovery callbacks whose mutations are exempt.
var walReplayers = map[string]bool{
	"planar/internal/wal.Replay":                       true,
	"planar/internal/replog.Sequencer.ReadSegmentFrom": true,
	"planar/internal/replog.Sequencer.ReadFrom":        true,
}

func runWalordering(pass *analysis.Pass) error {
	if !pkgMatch(pass.Pkg.Path(), walorderingScope) {
		return nil
	}
	replayLits := collectReplayLits(pass)
	var unannotated []*ast.FuncDecl
	helpers := map[*types.Func]bool{} // //planar:journaled: mutators in their own right
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if hasDirective(pass.Fset, pass.Files, fd, "planar:journaled") {
				if f, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					helpers[f] = true
				}
				continue
			}
			unannotated = append(unannotated, fd)
		}
	}
	for _, fd := range unannotated {
		checkWalFunc(pass, fd.Name.Name, fd.Body, replayLits, helpers)
	}
	return nil
}

// collectReplayLits finds function literals passed directly to a
// replay entry point anywhere in the package.
func collectReplayLits(pass *analysis.Pass) map[*ast.FuncLit]bool {
	lits := map[*ast.FuncLit]bool{}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if f := calleeFunc(pass.TypesInfo, call); f != nil && walReplayers[funcKey(f)] {
				for _, arg := range call.Args {
					if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
						lits[lit] = true
					}
				}
			}
			return true
		})
	}
	return lits
}

// checkWalFunc walks one function body (descending into literals
// except exempt replay callbacks — a mutation inside a closure still
// pairs with a journal call in the same lexical function) and reports
// mutators when the body contains no journal call.
func checkWalFunc(pass *analysis.Pass, name string, body *ast.BlockStmt, replayLits map[*ast.FuncLit]bool, helpers map[*types.Func]bool) {
	var mutations []*ast.CallExpr
	journaled := false
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			if replayLits[lit] {
				return false
			}
			if hasDirective(pass.Fset, pass.Files, lit, "planar:journaled") {
				return false
			}
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		f := calleeFunc(pass.TypesInfo, call)
		if f == nil {
			return true
		}
		switch key := funcKey(f); {
		case walMutators[key] || helpers[f]:
			mutations = append(mutations, call)
		case walJournals[key]:
			journaled = true
		}
		return true
	})
	if journaled {
		return
	}
	for _, call := range mutations {
		pass.Reportf(call.Pos(), "%s mutates the store via %s without a sequencer Commit in %s; journal the mutation or annotate the function //planar:journaled",
			name, exprString(pass.Fset, call.Fun), name)
	}
}
