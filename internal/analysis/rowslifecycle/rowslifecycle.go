// Package rowslifecycle checks that every Rows obtained from
// (*hierdb.Query).Run reaches Close or Collect. An abandoned Rows costs
// no worker — its query's production pauses — but a paused query keeps
// its admission slot and memory charge; this analyzer catches the
// obvious static cases at vet time.
//
// A Run result is compliant when the receiving variable is used, on
// some path, as the receiver of Close or Collect (including deferred),
// or when it escapes local reasoning: returned, sent, passed to another
// function, assigned to a field or captured by a closure. Discarding
// the result (expression statement or blank identifier) is always
// flagged; so is a variable whose only uses are Next/Row/Err/Stats,
// which consume the stream but never release the query.
//
// Test files are excluded: they probe expected-failure Runs whose Rows
// never exists, and internal/leaktest checks them dynamically.
package rowslifecycle

import (
	"go/ast"
	"go/types"
	"strings"

	"hierdb/internal/analysis"
)

// Analyzer flags Query.Run results that cannot reach Close or Collect.
var Analyzer = &analysis.Analyzer{
	Name: "rowslifecycle",
	Doc:  "check that every (*hierdb.Query).Run result reaches Close or Collect",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, f := range pass.Files {
		// Test files are callers probing the facade — including
		// expected-failure Runs whose Rows never exists — and run under
		// internal/leaktest's dynamic leak checks already.
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil, nil
}

// isQueryRun reports whether call is (*hierdb.Query).Run.
func isQueryRun(pass *analysis.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Run" {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isHierdbType(sig.Recv().Type(), "Query")
}

// isHierdbType reports whether t (possibly a pointer) is the named type
// hierdb.<name>.
func isHierdbType(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == "hierdb"
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	// Walk with an explicit parent stack so each Run call can be judged
	// by the construct that consumes its result.
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok || !isQueryRun(pass, call) {
			return true
		}
		var parent ast.Node
		if len(stack) >= 2 {
			parent = stack[len(stack)-2]
		}
		switch p := parent.(type) {
		case *ast.AssignStmt:
			obj, blank := resultBinding(pass, p, call)
			switch {
			case blank:
				pass.Reportf(call.Pos(), "result of (*hierdb.Query).Run discarded: the Rows must reach Close or Collect")
			case obj == nil:
				// Bound to a field or element: escapes local reasoning.
			case !released(pass, fd, obj):
				pass.Reportf(call.Pos(), "Rows from (*hierdb.Query).Run does not reach Close or Collect: a paused query keeps its slot and memory charge")
			}
		case *ast.ExprStmt:
			pass.Reportf(call.Pos(), "result of (*hierdb.Query).Run discarded: the Rows must reach Close or Collect")
		default:
			// Return result, call argument, send value, composite-lit
			// element, …: ownership transfers with the value.
		}
		return true
	})
}

// resultBinding inspects the assignment consuming call, returning the
// bound variable object (nil when the Rows goes to a non-identifier
// target) and whether the Rows landed in the blank identifier.
func resultBinding(pass *analysis.Pass, a *ast.AssignStmt, call *ast.CallExpr) (types.Object, bool) {
	if len(a.Rhs) != 1 || a.Rhs[0] != call || len(a.Lhs) == 0 {
		return nil, false
	}
	id, ok := a.Lhs[0].(*ast.Ident)
	if !ok {
		return nil, false // field or element target: escape
	}
	if id.Name == "_" {
		return nil, true
	}
	if o := pass.TypesInfo.Defs[id]; o != nil {
		return o, false
	}
	return pass.TypesInfo.Uses[id], false
}

// released reports whether some use of obj can release the stream:
// a Close/Collect call (including from a deferred closure), or an
// escape of the value itself — returned, passed as an argument, sent,
// stored via assignment, placed in a composite literal or address-
// taken. Consuming methods (Next/Row/Err/Stats) do not count: they
// read the stream but never release the query.
func released(pass *analysis.Pass, fd *ast.FuncDecl, obj types.Object) bool {
	ok := false
	var stack []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		if ok {
			return true // keep stack balanced, skip the work
		}
		id, isID := n.(*ast.Ident)
		if !isID || pass.TypesInfo.Uses[id] != obj {
			return true
		}
		if useReleases(stack, id) {
			ok = true
		}
		return true
	})
	return ok
}

// useReleases classifies one identifier use of the Rows variable by its
// syntactic parent.
func useReleases(stack []ast.Node, id *ast.Ident) bool {
	i := len(stack) - 2
	for i >= 0 {
		if _, paren := stack[i].(*ast.ParenExpr); !paren {
			break
		}
		i--
	}
	if i < 0 {
		return false
	}
	switch p := stack[i].(type) {
	case *ast.SelectorExpr:
		// Receiver of a method call or method value: only Close and
		// Collect release the stream.
		return p.X == id && (p.Sel.Name == "Close" || p.Sel.Name == "Collect")
	case *ast.CallExpr:
		// Argument position: the callee owns the lifecycle now.
		for _, a := range p.Args {
			if a == id {
				return true
			}
		}
		return false
	case *ast.ReturnStmt:
		return true // caller owns the lifecycle
	case *ast.SendStmt:
		return p.Value == id
	case *ast.CompositeLit:
		return true
	case *ast.KeyValueExpr:
		return p.Value == id
	case *ast.UnaryExpr:
		return p.Op.String() == "&"
	case *ast.AssignStmt:
		// The Rows value flowing out through an assignment (alias,
		// field store) escapes; appearing on the LHS (the binding
		// itself, or rebinding) does not.
		for _, r := range p.Rhs {
			if r == id {
				return true
			}
		}
		return false
	}
	return false
}
