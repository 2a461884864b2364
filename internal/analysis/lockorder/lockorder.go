// Package lockorder statically checks mutex acquisitions against the
// engine's documented lock hierarchy.
//
// Mutex fields join the hierarchy with a trailing comment naming their
// level:
//
//	mu sync.Mutex //hierdb:lock pool
//
// The levels, outermost first, mirror the ordering documented in
// internal/exec (nodes.go, memgov.go):
//
//	admit → mq → pool → jspill → part → spillmu → spillfile → storefile
//
// The analyzer walks each function with a symbolic "held" set: a Lock
// or RLock on an annotated mutex while already holding one at the same
// or a later level is an inversion; so is calling, directly or through
// same-package calls, a function that performs such an acquisition; and
// a channel send with any annotated mutex held is flagged, because the
// engine's sinks apply backpressure and a blocked send would carry the
// lock with it. Balanced Lock/Unlock pairs, early-unlock returns and
// `defer mu.Unlock()` are all understood; branches merge conservatively
// (a lock held on any non-terminating path is considered held after).
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"hierdb/internal/analysis"
)

// Analyzer flags acquisitions that violate the engine lock hierarchy.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "check engine mutex acquisitions against the admit→mq→pool→jspill→part→spillmu→spillfile→storefile hierarchy",
	Run:  run,
}

// hierarchy lists the lock levels outermost-first; the index+1 is the
// numeric level used for ordering checks.
var hierarchy = []string{"admit", "mq", "pool", "jspill", "part", "spillmu", "spillfile", "storefile"}

const numLevels = 8

func levelOf(name string) int {
	for i, n := range hierarchy {
		if n == name {
			return i + 1
		}
	}
	return 0
}

func hierarchyString() string { return strings.Join(hierarchy, " → ") }

// held is the multiset of hierarchy levels currently locked.
type held struct {
	counts [numLevels + 1]int
}

func (h *held) add(level int) { h.counts[level]++ }
func (h *held) remove(level int) {
	if h.counts[level] > 0 {
		h.counts[level]--
	}
}

func (h *held) any() bool {
	for _, c := range h.counts {
		if c > 0 {
			return true
		}
	}
	return false
}

// levels returns the held levels, innermost (highest) first.
func (h *held) levels() []int {
	var out []int
	for l := numLevels; l >= 1; l-- {
		if h.counts[l] > 0 {
			out = append(out, l)
		}
	}
	return out
}

// merge widens h to the element-wise max of both branches.
func (h *held) merge(o *held) {
	for i := range h.counts {
		if o.counts[i] > h.counts[i] {
			h.counts[i] = o.counts[i]
		}
	}
}

// funcInfo is the per-function summary used for interprocedural checks.
type funcInfo struct {
	decl *ast.FuncDecl
	// acquires[level] is true if the function (transitively) performs a
	// Lock at that level, regardless of whether it releases it.
	acquires [numLevels + 1]bool
	callees  []types.Object
}

func run(pass *analysis.Pass) (any, error) {
	s := &scanner{pass: pass, tracked: map[types.Object]int{}}
	s.collectTracked()
	if len(s.tracked) == 0 {
		return nil, nil
	}

	// Pass A: per-function direct acquisitions and call edges.
	s.funcs = map[types.Object]*funcInfo{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.TypesInfo.Defs[fd.Name]
			if obj == nil {
				continue
			}
			fi := &funcInfo{decl: fd}
			s.funcs[obj] = fi
			s.summarize(fd.Body, fi)
		}
	}
	// Fixpoint: propagate acquisitions through same-package calls.
	for changed := true; changed; {
		changed = false
		for _, fi := range s.funcs {
			for _, callee := range fi.callees {
				cfi := s.funcs[callee]
				if cfi == nil {
					continue
				}
				for l := 1; l <= numLevels; l++ {
					if cfi.acquires[l] && !fi.acquires[l] {
						fi.acquires[l] = true
						changed = true
					}
				}
			}
		}
	}

	// Pass B: re-walk each function with the held set, reporting.
	s.report = true
	for _, fi := range s.funcs {
		s.checkBody(fi.decl.Body)
	}
	return nil, nil
}

type scanner struct {
	pass    *analysis.Pass
	tracked map[types.Object]int // annotated mutex field/var → level
	funcs   map[types.Object]*funcInfo
	report  bool
	// cur accumulates the summary during pass A.
	cur *funcInfo
	// pending queues function literals (go/defer/callbacks) to walk
	// with an empty held set once the enclosing scan finishes.
	pending []*ast.FuncLit
}

// collectTracked finds struct fields whose trailing comment is
// //hierdb:lock <level> and records their level.
func (s *scanner) collectTracked() {
	for _, f := range s.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				name, pos, ok := lockAnnotation(field.Comment)
				if !ok {
					continue
				}
				level := levelOf(name)
				if level == 0 {
					s.pass.Reportf(pos, "unknown lock level %q (hierarchy: %s)", name, hierarchyString())
					continue
				}
				if !isMutexType(s.fieldType(field)) {
					s.pass.Reportf(pos, "//hierdb:lock on a non-mutex field")
					continue
				}
				for _, id := range field.Names {
					if obj := s.pass.TypesInfo.Defs[id]; obj != nil {
						s.tracked[obj] = level
					}
				}
			}
			return true
		})
	}
}

// lockAnnotation extracts the level name from a //hierdb:lock comment
// group, if present.
func lockAnnotation(cg *ast.CommentGroup) (name string, pos token.Pos, ok bool) {
	if cg == nil {
		return "", token.NoPos, false
	}
	for _, c := range cg.List {
		rest, found := strings.CutPrefix(c.Text, "//hierdb:lock")
		if !found {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return "", c.Pos(), true // empty name: reported as unknown
		}
		return fields[0], c.Pos(), true
	}
	return "", token.NoPos, false
}

func (s *scanner) fieldType(field *ast.Field) types.Type {
	if tv, ok := s.pass.TypesInfo.Types[field.Type]; ok {
		return tv.Type
	}
	return nil
}

// isMutexType reports whether t is sync.Mutex/RWMutex or a slice/array
// of them (per-worker part lock arrays).
func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch tt := t.Underlying().(type) {
	case *types.Slice:
		return isMutexType(tt.Elem())
	case *types.Array:
		return isMutexType(tt.Elem())
	case *types.Pointer:
		return isMutexType(tt.Elem())
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// summarize records direct acquisitions and call edges for pass A.
func (s *scanner) summarize(body *ast.BlockStmt, fi *funcInfo) {
	s.cur = fi
	h := &held{}
	s.scanStmt(body, h)
	s.drainPending()
	s.cur = nil
}

// checkBody re-walks a function for pass B diagnostics.
func (s *scanner) checkBody(body *ast.BlockStmt) {
	h := &held{}
	s.scanStmt(body, h)
	s.drainPending()
}

// drainPending walks queued function literals with a fresh held set:
// a goroutine or deferred closure starts with no locks of its own.
func (s *scanner) drainPending() {
	for len(s.pending) > 0 {
		lit := s.pending[0]
		s.pending = s.pending[1:]
		h := &held{}
		s.scanStmt(lit.Body, h)
	}
}

// terminates reports whether a statement list definitely transfers
// control away (return / break / continue / goto / panic as last stmt).
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// scanBranches scans each alternative from a copy of the entry state
// and leaves h at the element-wise max of the entry (the not-taken
// path) and every non-terminating branch's exit.
func (s *scanner) scanBranches(h *held, branches ...[]ast.Stmt) {
	entry := *h
	merged := entry
	for _, list := range branches {
		b := entry
		for _, st := range list {
			s.scanStmt(st, &b)
		}
		if !terminates(list) {
			merged.merge(&b)
		}
	}
	*h = merged
}

func (s *scanner) scanStmt(stmt ast.Stmt, h *held) {
	switch st := stmt.(type) {
	case nil:
	case *ast.BlockStmt:
		for _, inner := range st.List {
			s.scanStmt(inner, h)
		}
	case *ast.ExprStmt:
		s.scanExpr(st.X, h)
	case *ast.AssignStmt:
		for _, e := range st.Rhs {
			s.scanExpr(e, h)
		}
		for _, e := range st.Lhs {
			s.scanExpr(e, h)
		}
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						s.scanExpr(e, h)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range st.Results {
			s.scanExpr(e, h)
		}
	case *ast.IncDecStmt:
		s.scanExpr(st.X, h)
	case *ast.SendStmt:
		s.scanExpr(st.Chan, h)
		s.scanExpr(st.Value, h)
		s.reportSend(st.Arrow, h)
	case *ast.GoStmt:
		s.scanCallDetached(st.Call)
	case *ast.DeferStmt:
		s.scanDefer(st.Call, h)
	case *ast.IfStmt:
		s.scanStmt(st.Init, h)
		s.scanExpr(st.Cond, h)
		branches := [][]ast.Stmt{st.Body.List}
		if st.Else != nil {
			branches = append(branches, []ast.Stmt{st.Else})
		}
		s.scanBranches(h, branches...)
	case *ast.ForStmt:
		s.scanStmt(st.Init, h)
		if st.Cond != nil {
			s.scanExpr(st.Cond, h)
		}
		body := st.Body.List
		if st.Post != nil {
			body = append(append([]ast.Stmt{}, body...), st.Post)
		}
		s.scanBranches(h, body)
	case *ast.RangeStmt:
		s.scanExpr(st.X, h)
		s.scanBranches(h, st.Body.List)
	case *ast.SwitchStmt:
		s.scanStmt(st.Init, h)
		if st.Tag != nil {
			s.scanExpr(st.Tag, h)
		}
		var branches [][]ast.Stmt
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					s.scanExpr(e, h)
				}
				branches = append(branches, cc.Body)
			}
		}
		s.scanBranches(h, branches...)
	case *ast.TypeSwitchStmt:
		s.scanStmt(st.Init, h)
		s.scanStmt(st.Assign, h)
		var branches [][]ast.Stmt
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				branches = append(branches, cc.Body)
			}
		}
		s.scanBranches(h, branches...)
	case *ast.SelectStmt:
		var branches [][]ast.Stmt
		for _, c := range st.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			branch := append([]ast.Stmt{}, cc.Body...)
			if cc.Comm != nil {
				branch = append([]ast.Stmt{cc.Comm}, branch...)
			}
			branches = append(branches, branch)
		}
		s.scanBranches(h, branches...)
	case *ast.LabeledStmt:
		s.scanStmt(st.Stmt, h)
	}
}

// scanDefer handles `defer f(...)`: a deferred Unlock keeps the lock
// held to the end of the function (which is exactly how the source
// means it), a deferred closure is walked detached, and any other
// deferred call is ignored for ordering (it runs during unwinding).
func (s *scanner) scanDefer(call *ast.CallExpr, h *held) {
	for _, arg := range call.Args {
		s.scanExpr(arg, h)
	}
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		s.pending = append(s.pending, lit)
		return
	}
	// Deliberately not classifying: defer mu.Unlock() must NOT clear
	// the held entry, and defer mu.Lock() does not exist in practice.
}

// scanCallDetached walks `go f(...)`: the spawned body owns no locks.
func (s *scanner) scanCallDetached(call *ast.CallExpr) {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		s.pending = append(s.pending, lit)
		return
	}
}

// scanExpr walks an expression, classifying every call and queueing
// function literals for detached analysis.
func (s *scanner) scanExpr(e ast.Expr, h *held) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.FuncLit:
			s.pending = append(s.pending, nn)
			return false
		case *ast.CallExpr:
			// Walk arguments first (inner calls execute first), then
			// classify this call.
			for _, arg := range nn.Args {
				s.scanExpr(arg, h)
			}
			s.scanExpr(nn.Fun, h) // receiver sub-expressions, index exprs
			s.classifyCall(nn, h)
			return false
		}
		return true
	})
}

// classifyCall updates h for Lock/Unlock on tracked mutexes and checks
// ordinary calls against callee summaries.
func (s *scanner) classifyCall(call *ast.CallExpr, h *held) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if ok {
		switch sel.Sel.Name {
		case "Lock", "RLock":
			if level := s.mutexLevel(sel.X); level > 0 {
				s.acquire(call, h, level)
				return
			}
		case "Unlock", "RUnlock":
			if level := s.mutexLevel(sel.X); level > 0 {
				h.remove(level)
				return
			}
		}
	}
	// Ordinary call: check the callee's transitive acquisitions against
	// what we hold right now.
	callee := s.calleeObj(call)
	if callee == nil {
		return
	}
	if s.cur != nil {
		s.cur.callees = append(s.cur.callees, callee)
	}
	if !s.report || !h.any() {
		return
	}
	fi := s.funcs[callee]
	if fi == nil {
		return
	}
	for _, hl := range h.levels() {
		for l := 1; l <= hl; l++ {
			if fi.acquires[l] {
				s.pass.Reportf(call.Pos(),
					"call to %s acquires %q lock while holding %q lock (hierarchy: %s)",
					callee.Name(), hierarchy[l-1], hierarchy[hl-1], hierarchyString())
				return
			}
		}
	}
}

// acquire records a Lock at the given level, reporting an inversion if
// an equal-or-later level is already held.
func (s *scanner) acquire(call *ast.CallExpr, h *held, level int) {
	if s.cur != nil {
		s.cur.acquires[level] = true
	}
	if s.report {
		for _, hl := range h.levels() {
			if hl >= level {
				s.pass.Reportf(call.Pos(),
					"acquires %q lock while holding %q lock (hierarchy: %s)",
					hierarchy[level-1], hierarchy[hl-1], hierarchyString())
				break
			}
		}
	}
	h.add(level)
}

func (s *scanner) reportSend(pos token.Pos, h *held) {
	if !s.report || !h.any() {
		return
	}
	l := h.levels()[0]
	s.pass.Reportf(pos, "channel send while holding %q lock", hierarchy[l-1])
}

// mutexLevel resolves the receiver expression of a Lock/Unlock call to
// an annotated mutex's level (0 if untracked). Indexing into annotated
// part lock arrays (or.locks[i]) and pointer/paren wrappers are peeled.
func (s *scanner) mutexLevel(recv ast.Expr) int {
	for {
		switch r := recv.(type) {
		case *ast.ParenExpr:
			recv = r.X
			continue
		case *ast.StarExpr:
			recv = r.X
			continue
		case *ast.IndexExpr:
			recv = r.X
			continue
		}
		break
	}
	switch r := recv.(type) {
	case *ast.SelectorExpr:
		if selInfo, ok := s.pass.TypesInfo.Selections[r]; ok {
			return s.tracked[selInfo.Obj()]
		}
		if obj := s.pass.TypesInfo.Uses[r.Sel]; obj != nil {
			return s.tracked[obj]
		}
	case *ast.Ident:
		if obj := s.pass.TypesInfo.Uses[r]; obj != nil {
			return s.tracked[obj]
		}
	}
	return 0
}

// calleeObj resolves a call to a same-package function or method
// object, if statically known.
func (s *scanner) calleeObj(call *ast.CallExpr) types.Object {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	obj := s.pass.TypesInfo.Uses[id]
	if obj == nil {
		return nil
	}
	if fn, ok := obj.(*types.Func); ok && fn.Pkg() == s.pass.Pkg {
		return fn
	}
	return nil
}
