// Package ctxflow enforces context threading in the request path. Inside
// internal/serve and internal/router, creating a fresh root context —
// context.Background(), context.TODO(), or context.WithoutCancel(...) —
// silently detaches work from request cancellation: deadlines stop
// propagating, shutdown stops draining, and goroutines outlive the requests
// that spawned them.
//
// A handful of detachments are deliberate (a health prober owns its own
// schedule; a single-flight leader must outlive the first caller so late
// joiners can still be served). Those sites carry //pgmor:detach <reason>,
// either on the enclosing function's doc comment or on the call's line, and
// the reason is mandatory — an unexplained detach is indistinguishable from
// a forgotten ctx parameter.
package ctxflow

import (
	"go/ast"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "context.Background/TODO/WithoutCancel in request-path packages require //pgmor:detach <reason>",
	Run:  run,
}

// rootContextFuncs are the context constructors that sever cancellation.
var rootContextFuncs = map[string]bool{
	"Background": true, "TODO": true, "WithoutCancel": true,
}

// enforced reports whether the package path is in the request path.
func enforced(path string) bool {
	return strings.Contains(path, "internal/serve") || strings.Contains(path, "internal/router")
}

func run(pass *analysis.Pass) error {
	pkg := pass.Pkg
	if pkg == nil || !enforced(pkg.Path()) {
		return nil
	}
	for _, file := range pkg.Files {
		lines := analysis.CollectLineDirectives(pass.Fset, file, "detach")
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			reason, funcDetach := analysis.Directive(fd.Doc, "detach")
			if funcDetach && reason == "" {
				pass.Reportf(fd.Pos(), "ctxflow: //pgmor:detach needs a reason (//pgmor:detach <why this work must outlive the request>)")
				funcDetach = false
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				name := contextRootCall(pass, call)
				if name == "" {
					return true
				}
				if funcDetach {
					return true
				}
				if arg, ok := lines.At(pass.Fset, call.Pos()); ok {
					if arg == "" {
						pass.Reportf(call.Pos(), "ctxflow: //pgmor:detach needs a reason (//pgmor:detach <why this work must outlive the request>)")
					}
					return true
				}
				pass.Reportf(call.Pos(),
					"ctxflow: context.%s() detaches from request cancellation in %s; thread the caller's ctx or annotate //pgmor:detach <reason>",
					name, pkg.Path())
				return true
			})
		}
	}
	return nil
}

// contextRootCall returns the constructor name if call is
// context.Background/TODO/WithoutCancel, else "".
func contextRootCall(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !rootContextFuncs[sel.Sel.Name] {
		return ""
	}
	obj := pass.Pkg.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
		return ""
	}
	return sel.Sel.Name
}
