package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"planar/internal/lint/analysis"
)

// Locknesting builds a per-package lock-acquisition graph from
// Lock/RLock call sites and flags violations of the documented lock
// order (DESIGN.md §9), double-acquisitions of one lock class, and
// order cycles among unranked locks.
//
// A lock class is "pkgpath.Type.field" for a mutex field (the usual
// shape here), "pkgpath.var" for a package-level mutex, or a
// per-variable class for locals. Holding is tracked lexically through
// a function body: Lock/RLock pushes, Unlock/RUnlock pops, a deferred
// Unlock holds to the end of the function. Function literals are
// analyzed as separate functions with an empty held set — they
// usually run on other goroutines (scatter workers, servers), where
// the enclosing held set does not apply.
//
// Acquisitions are propagated interprocedurally two ways: a fixpoint
// over same-package calls, and a table of exported entry points that
// acquire locks internally (Sequencer.Commit takes the sequencer
// lock, service.DB methods take partition locks, core.Multi methods
// take the collection lock, …) so cross-package nesting is checked
// without whole-program analysis.
var Locknesting = &analysis.Analyzer{
	Name: "locknesting",
	Doc:  "enforce the documented lock-acquisition order and flag double-acquires and lock cycles",
	Run:  runLocknesting,
}

type lockClass string

// lockRank is the documented acquisition order: a lock may only be
// taken while holding locks of strictly lower rank, and equal-rank
// classes must never nest either.
var lockRank = map[lockClass]int{
	"planar/internal/service.partition.mu": 20, // per-shard store lock, outermost
	"planar/internal/core.Multi.mu":        30, // index-collection lock
	"planar/internal/replog.Sequencer.mu":  60, // commit sequencer (journal-under-lock)
	"planar/internal/btree.pagedArena.io":  70, // paged tree: writeback chunk, checkpoint flush
	"planar/internal/btree.pagedArena.mu":  72, // paged tree: op bracket, writeback stage/complete
	"planar/internal/pager.cacheShard.mu":  74, // page cache shard
	"planar/internal/replica.Replica.mu":   90, // replica status leaf
	"planar/internal/pager.File.mu":        95, // page allocator leaf (page I/O takes no lock)
}

// lockAcquiredByCall maps exported entry points ("pkgpath.Type.Method"
// or "pkgpath.Func") to the lock class they acquire internally, so a
// call site under a held lock is checked against the documented order
// even though the callee's body is in another package.
var lockAcquiredByCall = map[string]lockClass{}

func init() {
	add := func(class lockClass, key string, methods ...string) {
		for _, m := range methods {
			lockAcquiredByCall[key+"."+m] = class
		}
	}
	// Sequencer.Last is lock-free (atomic mirror) and deliberately
	// absent: reads may stamp LSN headers under any lock.
	add("planar/internal/replog.Sequencer.mu", "planar/internal/replog.Sequencer",
		"Commit", "CommitAt", "CommitBatch", "Next", "ReadFrom", "RingBase", "Wait")
	// service.DB methods are tagged with the outermost lock they
	// acquire, so callers holding anything ranked at or above it are
	// caught (e.g. a status mutex held across db.Close).
	add("planar/internal/service.partition.mu", "planar/internal/service.DB",
		"Append", "Update", "Remove", "AddNormal", "CaptureState", "ApplyReplicated",
		"Query", "QueryBatch", "TopK", "Count", "SelectivityBounds", "Explain",
		"Len", "Checkpoint", "Close", "FeedRead", "NumIndexes", "MemoryBytes")
	// DB.Metrics reads per-counter atomics and holds no lock, so it
	// has no entry here.
	add("planar/internal/replog.Sequencer.mu", "planar/internal/service.DB",
		"WaitLSN")
	add("planar/internal/core.Multi.mu", "planar/internal/core.Multi",
		"Append", "Update", "Remove", "AddNormal", "AddNormals",
		"AttachPrebuilt", "Inequality", "InequalityIDs", "AppendInequalityIDs",
		"InequalityBatch", "TopK", "Count", "SelectivityBounds", "Explain",
		"NumIndexes", "MemoryBytes", "CheckpointIndexes", "WritebackIndexes")
	// An index has no lock of its own: its accessors read-lock the
	// Multi holding it.
	add("planar/internal/core.Multi.mu", "planar/internal/core.Index",
		"Shift", "Len", "MemoryBytes", "Tree")
	// The paged tier (DESIGN.md §12). Tree methods are tagged with the
	// outermost arena lock they take; a RAM tree takes none, which the
	// table cannot see, so the check is conservative. File.ReadPage and
	// File.WritePage are lock-free and deliberately absent.
	add("planar/internal/btree.pagedArena.io", "planar/internal/btree.Tree",
		"WritebackPaged", "FlushPaged")
	add("planar/internal/btree.pagedArena.mu", "planar/internal/btree.Tree",
		"Contains", "Insert", "Delete", "Min", "Max", "AscendLE", "RankChunks",
		"DescendChunks", "RangeChunks", "CollectRange", "RankLE", "CountRange",
		"Validate")
	add("planar/internal/pager.cacheShard.mu", "planar/internal/pager.Cache",
		"Get", "Lookup", "NewFrame", "Unpin", "MarkDirty", "MarkClean", "Rekey",
		"Drop", "Stats")
	add("planar/internal/pager.File.mu", "planar/internal/pager.File",
		"Alloc", "Free", "Commit", "Meta", "CheckpointLSN", "NumPages")
}

type lockEventKind int

const (
	evAcquire lockEventKind = iota // Lock / RLock
	evRelease                      // Unlock / RUnlock
	evCall                         // call with a known acquisition summary
)

type lockEvent struct {
	kind   lockEventKind
	class  lockClass
	write  bool
	callee *types.Func
	pos    token.Pos
}

type lockEdge struct {
	from, to lockClass
	pos      token.Pos
}

func runLocknesting(pass *analysis.Pass) error {
	// Collect event streams: one per FuncDecl and one per FuncLit.
	type fn struct {
		name   string
		decl   *types.Func // nil for literals
		events []lockEvent
	}
	var fns []*fn
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var obj *types.Func
			if o, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				obj = o
			}
			for i, body := range splitFuncLits(fd.Body) {
				name := fd.Name.Name
				f := &fn{name: name, events: collectLockEvents(pass, body)}
				if i == 0 {
					f.decl = obj
				} else {
					f.name = name + " (func literal)"
				}
				fns = append(fns, f)
			}
		}
	}

	// Direct acquisition summaries and the same-package call graph.
	direct := map[*types.Func]map[lockClass]bool{}
	callees := map[*types.Func]map[*types.Func]bool{}
	for _, f := range fns {
		if f.decl == nil {
			continue
		}
		direct[f.decl] = map[lockClass]bool{}
		callees[f.decl] = map[*types.Func]bool{}
		for _, ev := range f.events {
			switch ev.kind {
			case evAcquire:
				direct[f.decl][ev.class] = true
			case evCall:
				if c, ok := callAcquires(ev.callee); ok {
					direct[f.decl][c] = true
				} else if funcPkgPath(ev.callee) == pass.Pkg.Path() {
					callees[f.decl][ev.callee] = true
				}
			}
		}
	}
	// Fixpoint: propagate callee acquisitions up the package call graph.
	summary := direct
	for changed := true; changed; {
		changed = false
		for f, cs := range callees {
			for c := range cs {
				for class := range summary[c] {
					if !summary[f][class] {
						summary[f][class] = true
						changed = true
					}
				}
			}
		}
	}
	// Publish the post-fixpoint summaries as facts so flow-sensitive
	// analyzers later in the suite (guardedby's *Locked consistency
	// check) see which locks each function acquires without redoing
	// the walk.
	for f, classes := range summary {
		var cs []string
		for c := range classes {
			cs = append(cs, string(c))
		}
		sort.Strings(cs)
		pass.Facts.Export("lock.acquires:"+funcKey(f), cs)
	}

	// Simulate each function, checking acquisitions against held locks.
	edges := map[lockClass]map[lockClass]token.Pos{}
	addEdge := func(from, to lockClass, pos token.Pos) {
		if edges[from] == nil {
			edges[from] = map[lockClass]token.Pos{}
		}
		if _, ok := edges[from][to]; !ok {
			edges[from][to] = pos
		}
	}
	type heldLock struct {
		class lockClass
		write bool
	}
	for _, f := range fns {
		var held []heldLock
		check := func(c lockClass, pos token.Pos, via string) {
			for _, h := range held {
				if h.class == c {
					pass.Reportf(pos, "%s%s acquires %s while already holding it (self-deadlock)", f.name, via, c)
					continue
				}
				rc, okc := lockRank[c]
				rh, okh := lockRank[h.class]
				if okc && okh && rc <= rh {
					pass.Reportf(pos, "%s%s acquires %s while holding %s, violating the documented lock order (see DESIGN.md §9)", f.name, via, c, h.class)
					continue // already reported; keep it out of the cycle graph
				}
				addEdge(h.class, c, pos)
			}
		}
		for _, ev := range f.events {
			switch ev.kind {
			case evAcquire:
				check(ev.class, ev.pos, "")
				held = append(held, heldLock{ev.class, ev.write})
			case evRelease:
				for i := len(held) - 1; i >= 0; i-- {
					if held[i].class == ev.class {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			case evCall:
				var acquired []lockClass
				if c, ok := callAcquires(ev.callee); ok {
					acquired = []lockClass{c}
				} else if funcPkgPath(ev.callee) == pass.Pkg.Path() {
					for class := range summary[ev.callee] {
						acquired = append(acquired, class)
					}
					sort.Slice(acquired, func(i, j int) bool { return acquired[i] < acquired[j] })
				}
				for _, c := range acquired {
					check(c, ev.pos, fmt.Sprintf(" calls %s which", ev.callee.Name()))
				}
			}
		}
	}

	reportLockCycles(pass, edges)
	return nil
}

// callAcquires looks a callee up in the cross-package acquisition
// table.
func callAcquires(f *types.Func) (lockClass, bool) {
	if f == nil {
		return "", false
	}
	key := recvKey(f)
	if key == "" {
		key = funcPkgPath(f)
	}
	c, ok := lockAcquiredByCall[key+"."+f.Name()]
	return c, ok
}

// splitFuncLits returns body with nested function literals replaced
// by independent roots: element 0 is the original body (literals are
// skipped while walking it), the rest are the literal bodies found
// anywhere inside, recursively.
func splitFuncLits(body *ast.BlockStmt) []ast.Node {
	roots := []ast.Node{body}
	var collect func(n ast.Node)
	collect = func(n ast.Node) {
		// n is always a BlockStmt, so the root itself never matches.
		ast.Inspect(n, func(m ast.Node) bool {
			if lit, ok := m.(*ast.FuncLit); ok {
				roots = append(roots, lit.Body)
				collect(lit.Body)
				return false
			}
			return true
		})
	}
	collect(body)
	return roots
}

// collectLockEvents walks one function body in source order (not
// descending into function literals) and extracts lock operations and
// call sites.
func collectLockEvents(pass *analysis.Pass, body ast.Node) []lockEvent {
	var events []lockEvent
	deferred := map[*ast.CallExpr]bool{}
	concurrent := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // analyzed as its own root
		case *ast.DeferStmt:
			deferred[n.Call] = true
		case *ast.GoStmt:
			concurrent[n.Call] = true
		case *ast.CallExpr:
			if concurrent[n] {
				return true // runs on another goroutine; held set does not transfer
			}
			if op, class, write, ok := lockOp(pass, n); ok {
				switch {
				case op == "Lock" || op == "RLock":
					if !deferred[n] {
						events = append(events, lockEvent{kind: evAcquire, class: class, write: write, pos: n.Pos()})
					}
				case deferred[n]:
					// deferred Unlock: held until return — no release event.
				default:
					events = append(events, lockEvent{kind: evRelease, class: class, pos: n.Pos()})
				}
				return true
			}
			if f := calleeFunc(pass.TypesInfo, n); f != nil {
				events = append(events, lockEvent{kind: evCall, callee: f, pos: n.Pos()})
			}
		}
		return true
	})
	return events
}

// lockOp recognises calls to sync.Mutex / sync.RWMutex lock methods
// and derives the lock class of the receiver expression.
func lockOp(pass *analysis.Pass, call *ast.CallExpr) (op string, class lockClass, write bool, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false, false
	}
	f := calleeFunc(pass.TypesInfo, call)
	if f == nil || funcPkgPath(f) != "sync" {
		return "", "", false, false
	}
	switch f.Name() {
	case "Lock", "Unlock":
		write = true
	case "RLock", "RUnlock":
	default:
		return "", "", false, false
	}
	rk := recvKey(f)
	if rk != "sync.Mutex" && rk != "sync.RWMutex" {
		return "", "", false, false
	}
	return f.Name(), lockClassOf(pass, sel.X), write, true
}

// lockClassOf names the mutex a lock expression denotes.
func lockClassOf(pass *analysis.Pass, x ast.Expr) lockClass {
	x = ast.Unparen(x)
	if tv, ok := pass.TypesInfo.Types[x]; ok {
		if k := typeKey(tv.Type); k != "" && k != "sync.Mutex" && k != "sync.RWMutex" {
			// Promoted method on an embedded mutex: the holder type is
			// the class.
			return lockClass(k + ".(embedded)")
		}
	}
	switch e := x.(type) {
	case *ast.SelectorExpr:
		if tv, ok := pass.TypesInfo.Types[e.X]; ok {
			if k := typeKey(tv.Type); k != "" {
				return lockClass(k + "." + e.Sel.Name)
			}
		}
		if id, ok := e.X.(*ast.Ident); ok {
			if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok {
				return lockClass(pn.Imported().Path() + "." + e.Sel.Name)
			}
		}
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		if obj == nil {
			obj = pass.TypesInfo.Defs[e]
		}
		if obj != nil {
			if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
				return lockClass(obj.Pkg().Path() + "." + obj.Name())
			}
			p := pass.Fset.Position(obj.Pos())
			return lockClass(fmt.Sprintf("%s@%s:%d", obj.Name(), p.Filename, p.Line))
		}
	}
	p := pass.Fset.Position(x.Pos())
	return lockClass(fmt.Sprintf("lock@%s:%d", p.Filename, p.Line))
}

// reportLockCycles runs a DFS over the acquisition-order graph and
// reports each cycle once. Cycles among ranked locks necessarily
// contain a rank-violating edge already reported above; this catches
// inversions among locks the rank table does not cover.
func reportLockCycles(pass *analysis.Pass, edges map[lockClass]map[lockClass]token.Pos) {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[lockClass]int{}
	seen := map[string]bool{}
	var stack []lockClass
	var visit func(c lockClass)
	visit = func(c lockClass) {
		color[c] = gray
		stack = append(stack, c)
		var nexts []lockClass
		for next := range edges[c] {
			nexts = append(nexts, next)
		}
		sort.Slice(nexts, func(i, j int) bool { return nexts[i] < nexts[j] })
		for _, next := range nexts {
			pos := edges[c][next]
			switch color[next] {
			case white:
				visit(next)
			case gray:
				// Found a cycle: slice the stack from next onwards.
				start := 0
				for i, s := range stack {
					if s == next {
						start = i
						break
					}
				}
				cyc := append([]lockClass{}, stack[start:]...)
				key := cycleKey(cyc)
				if !seen[key] {
					seen[key] = true
					pass.Reportf(pos, "lock order cycle: %s", cycleString(cyc))
				}
			}
		}
		stack = stack[:len(stack)-1]
		color[c] = black
	}
	var nodes []lockClass
	for c := range edges {
		nodes = append(nodes, c)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, c := range nodes {
		if color[c] == white {
			visit(c)
		}
	}
}

func cycleKey(cyc []lockClass) string {
	sorted := append([]lockClass{}, cyc...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := ""
	for _, c := range sorted {
		out += string(c) + "|"
	}
	return out
}

func cycleString(cyc []lockClass) string {
	out := ""
	for _, c := range cyc {
		out += string(c) + " → "
	}
	return out + string(cyc[0])
}
