// Package hotloopalloc flags per-iteration allocations inside loops of
// functions marked // lint:hot.
//
// The candidate scan (PartitionChecker.scan), the sorted partition and
// side derivation and the partition product run once per candidate over
// millions of rows; a time.Now(), fmt.Sprintf
// or map/slice literal inside their loops turns into per-row garbage
// and scheduler pressure. The marker is opt-in: annotate a function's
// doc comment with // lint:hot and the analyzer reports, inside any
// loop body (including the loop condition and post statement):
//
//   - calls to time.Now;
//   - calls to the allocating fmt formatters (Sprintf, Sprint,
//     Sprintln, Errorf, Appendf);
//   - map or slice composite literals.
//
// Suppress a deliberate site with // lint:allow hotloopalloc.
package hotloopalloc

import (
	"go/ast"
	"go/types"

	"golang.org/x/tools/go/analysis"

	"ocd/internal/analysis/lintutil"
)

// Analyzer is the hotloopalloc analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "hotloopalloc",
	Doc:  "flags time.Now, fmt.Sprintf and map/slice literals inside loops of functions marked // lint:hot (suppress with // lint:allow hotloopalloc)",
	Run:  run,
}

// allocFuncs maps package path to the function names that allocate on
// every call.
var allocFuncs = map[string]map[string]bool{
	"time": {"Now": true},
	"fmt":  {"Sprintf": true, "Sprint": true, "Sprintln": true, "Errorf": true, "Appendf": true},
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, file := range pass.Files {
		if lintutil.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		allow := lintutil.NewAllower(pass.Fset, file)
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !lintutil.IsHot(fn) {
				continue
			}
			w := &walker{pass: pass, allow: allow, fn: fn.Name.Name}
			w.walk(fn.Body, false)
		}
	}
	return nil, nil
}

type walker struct {
	pass  *analysis.Pass
	allow *lintutil.Allower
	fn    string
}

// walk traverses n; hot is true when every evaluation of n happens
// once per loop iteration.
func (w *walker) walk(n ast.Node, hot bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch s := m.(type) {
		case nil:
			return true
		case *ast.ForStmt:
			if s != n {
				w.walk(s.Init, hot)
				w.walk(s.Cond, true)
				w.walk(s.Post, true)
				w.walk(s.Body, true)
				return false
			}
			return true
		case *ast.RangeStmt:
			if s != n {
				w.walk(s.X, hot)
				w.walk(s.Body, true)
				return false
			}
			return true
		}
		if hot {
			w.checkNode(m)
		}
		return true
	})
}

func (w *walker) checkNode(n ast.Node) {
	switch e := n.(type) {
	case *ast.CallExpr:
		sel, ok := e.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		fn, ok := w.pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return
		}
		names := allocFuncs[fn.Pkg().Path()]
		if names == nil || !names[fn.Name()] {
			return
		}
		if w.allow.Allows(e.Pos(), "hotloopalloc") {
			return
		}
		w.pass.Reportf(e.Pos(),
			"%s.%s inside a loop of hot function %s allocates per iteration; hoist it out of the loop",
			fn.Pkg().Name(), fn.Name(), w.fn)
	case *ast.CompositeLit:
		t := w.pass.TypesInfo.TypeOf(e)
		if t == nil {
			return
		}
		switch t.Underlying().(type) {
		case *types.Map, *types.Slice:
		default:
			return
		}
		if w.allow.Allows(e.Pos(), "hotloopalloc") {
			return
		}
		w.pass.Reportf(e.Pos(),
			"%s literal inside a loop of hot function %s allocates per iteration; hoist or reuse a buffer",
			kindWord(t.Underlying()), w.fn)
	}
}

func kindWord(t types.Type) string {
	if _, ok := t.(*types.Map); ok {
		return "map"
	}
	return "slice"
}
