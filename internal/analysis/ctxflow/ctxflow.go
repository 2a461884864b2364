// Package ctxflow enforces the engine's context discipline below the
// facade: in the scoped packages (internal/exec, internal/spill,
// internal/difftest) a context.Context must flow parameter→call.
// Minting a fresh root with context.Background or context.TODO there
// detaches engine work from the caller's cancellation, and storing a
// ctx in a struct hides its lifetime — both have caused real leaks in
// engines shaped like this one.
//
// Flagged in scoped packages (test files excluded):
//
//   - calls to context.Background or context.TODO
//   - struct fields of type context.Context without a sanctioning
//     `//hierdb:ctx-in-struct <reason>` trailing comment (the engine
//     has one: a query's coordinator keeps the caller's ctx so that a
//     cancel before completion wins, while the abort itself is a
//     context.AfterFunc hook registered at Submit)
//   - package-level variables of type context.Context
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"hierdb/internal/analysis"
)

// Analyzer enforces parameter→call context flow below the facade.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "context must flow parameter→call in exec/spill/difftest: no context.Background below the facade, no ctx in structs outside sanctioned sites",
	Run:  run,
}

// Scoped lists the package paths the discipline applies to.
var Scoped = []string{
	"hierdb/internal/exec",
	"hierdb/internal/spill",
	"hierdb/internal/difftest",
}

const structMarker = "//hierdb:ctx-in-struct"

func run(pass *analysis.Pass) (any, error) {
	if !inScope(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue // tests are callers: they may mint roots
		}
		checkFile(pass, f)
	}
	return nil, nil
}

func inScope(path string) bool {
	for _, s := range Scoped {
		if path == s || strings.HasPrefix(path, s+"/") {
			return true
		}
	}
	return false
}

func checkFile(pass *analysis.Pass, f *ast.File) {
	for _, d := range f.Decls {
		if gd, ok := d.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					checkPackageVar(pass, vs)
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.StructType:
			checkStruct(pass, nn)
		case *ast.CallExpr:
			checkCall(pass, nn)
		}
		return true
	})
}

// checkPackageVar flags package-level context variables.
func checkPackageVar(pass *analysis.Pass, vs *ast.ValueSpec) {
	for _, name := range vs.Names {
		obj := pass.TypesInfo.Defs[name]
		if obj == nil || obj.Parent() != pass.Pkg.Scope() {
			continue
		}
		if isContextType(obj.Type()) {
			pass.Reportf(name.Pos(), "package-level context.Context: context must flow parameter→call below the facade")
		}
	}
}

// checkStruct flags unsanctioned context fields.
func checkStruct(pass *analysis.Pass, st *ast.StructType) {
	for _, field := range st.Fields.List {
		tv, ok := pass.TypesInfo.Types[field.Type]
		if !ok || !isContextType(tv.Type) {
			continue
		}
		if sanctioned(field.Comment) {
			continue
		}
		pos := field.Type.Pos()
		if len(field.Names) > 0 {
			pos = field.Names[0].Pos()
		}
		pass.Reportf(pos, "context stored in struct field: contexts flow parameter→call below the facade (sanction deliberate lifetime owners with %s <reason>)", structMarker)
	}
}

// sanctioned reports a //hierdb:ctx-in-struct trailing comment with a
// reason.
func sanctioned(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		rest, ok := strings.CutPrefix(c.Text, structMarker)
		if ok && strings.TrimSpace(rest) != "" {
			return true
		}
	}
	return false
}

// checkCall flags context.Background() and context.TODO().
func checkCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if sel.Sel.Name != "Background" && sel.Sel.Name != "TODO" {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return
	}
	pass.Reportf(call.Pos(), "context.%s below the facade: engine code must thread the caller's ctx parameter→call", sel.Sel.Name)
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
