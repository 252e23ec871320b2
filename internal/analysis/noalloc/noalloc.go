// Package noalloc rejects allocating constructs in functions annotated
// //pgmor:noalloc — the static half of the repo's zero-alloc contract for
// the modal evaluation kernels, the session-advance output kernel, and the
// metrics hot path (the dynamic half is the AllocsPerRun suite; see
// //pgmor:alloctest).
//
// Flagged constructs: make/new, append that may reallocate (anything but
// x = append(x, ...)), closure literals, slice/map literals, address-of
// composite literals, interface boxing at call sites and assignments,
// string concatenation and string<->[]byte conversions, map writes, go
// statements, calls into allocating stdlib packages (fmt, errors, strings,
// strconv, ...), and calls to same-module functions that transitively
// allocate. Dynamic calls (func values, interface methods) cannot be proven
// allocation-free and are flagged in annotated functions.
//
// Two escape hatches keep the contract honest instead of noisy:
//
//   - constructs inside a return statement are exempt: error-formatting on
//     the way out runs at most once per call and never in the steady state;
//   - a //pgmor:alloc <reason> line directive acknowledges a deliberate
//     cold-path allocation (lazy scratch growth, LU fallback for non-modal
//     blocks) where it happens. Markers require a reason, and stale markers
//     — ones no longer covering any allocating construct — are themselves
//     findings, so suppressions cannot outlive the code they excuse.
package noalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name:       "noalloc",
	Doc:        "//pgmor:noalloc functions must not contain allocating constructs",
	ModuleWide: true,
	Run:        run,
}

// allocPackages is the stdlib denylist: calls into these packages allocate
// (or exist to build strings/errors) and are flagged outright. Everything
// else out-of-module is trusted — the annotated kernels call only
// sync/atomic and math-shaped helpers there.
var allocPackages = map[string]bool{
	"fmt": true, "errors": true, "strings": true, "strconv": true,
	"sort": true, "bytes": true, "bufio": true, "io": true, "os": true,
	"log": true, "log/slog": true, "regexp": true, "reflect": true,
	"context": true, "encoding/json": true, "encoding/gob": true,
	"net/http": true,
}

// site is one allocating construct.
type site struct {
	pos  token.Pos
	what string
}

// callEdge is a static call to a same-module function.
type callEdge struct {
	pos    token.Pos
	callee *types.Func
}

// funcFacts is everything collected from one function body.
type funcFacts struct {
	name      string
	annotated bool
	sites     []site     // unmarked, unexempt allocating constructs
	calls     []callEdge // unmarked static same-module calls
	dynamics  []site     // dynamic calls; flagged only when annotated
}

// reason explains why a function allocates, as a chain for call-site
// diagnostics.
type reason struct {
	fn   *types.Func // nil for a direct construct
	site site
	next *reason
}

func run(pass *analysis.Pass) error {
	m := pass.Module

	facts := make(map[*types.Func]*funcFacts)
	type staleMarker struct {
		pos token.Pos
		arg string
	}
	var stale []staleMarker

	for _, pkg := range m.Packages {
		for _, file := range pkg.Files {
			markers := analysis.CollectLineDirectives(m.Fset, file, "alloc")
			used := make(map[int]bool)
			markerPos := markerPositions(m.Fset, file)

			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				_, annotated := analysis.Directive(fd.Doc, "noalloc")
				if fd.Body == nil {
					// Assembly-backed stubs: the body policy lives in the
					// asmpolicy analyzer.
					if annotated {
						facts[obj] = &funcFacts{name: obj.FullName(), annotated: true}
					}
					continue
				}
				c := &collector{
					pass:       pass,
					pkg:        pkg,
					markers:    markers,
					used:       used,
					facts:      &funcFacts{name: obj.FullName(), annotated: annotated},
					selfAppend: make(map[*ast.CallExpr]bool),
				}
				c.findSelfAppends(fd.Body)
				c.visit(fd.Body, false)
				facts[obj] = c.facts
			}

			for line, pos := range markerPos {
				arg, _ := markers.At(m.Fset, pos)
				if arg == "" {
					pass.Reportf(pos, "pgmor:alloc marker needs a reason (//pgmor:alloc <why this cold-path allocation is deliberate>)")
					continue
				}
				if !used[line] && !used[line+1] {
					stale = append(stale, staleMarker{pos, arg})
				}
			}
		}
	}

	// Resolve transitive allocation bottom-up with memoization; annotated
	// functions count as clean at call sites (their own findings are
	// reported directly, not repeated at every caller).
	memo := make(map[*types.Func]*reason)
	visiting := make(map[*types.Func]bool)
	var allocates func(fn *types.Func) *reason
	allocates = func(fn *types.Func) *reason {
		f, ok := facts[fn]
		if !ok || f.annotated {
			return nil
		}
		if r, done := memo[fn]; done {
			return r
		}
		if visiting[fn] {
			return nil // recursion itself does not allocate
		}
		visiting[fn] = true
		defer delete(visiting, fn)
		var r *reason
		if len(f.sites) > 0 {
			r = &reason{site: f.sites[0]}
		} else {
			for _, e := range f.calls {
				if sub := allocates(e.callee); sub != nil {
					r = &reason{fn: e.callee, site: site{pos: e.pos}, next: sub}
					break
				}
			}
		}
		memo[fn] = r
		return r
	}

	for _, pkg := range m.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				f := facts[obj]
				if f == nil || !f.annotated {
					continue
				}
				for _, s := range f.sites {
					pass.Reportf(s.pos, "noalloc: %s in //pgmor:noalloc function %s", s.what, fd.Name.Name)
				}
				for _, d := range f.dynamics {
					pass.Reportf(d.pos, "noalloc: %s in //pgmor:noalloc function %s", d.what, fd.Name.Name)
				}
				for _, e := range f.calls {
					if r := allocates(e.callee); r != nil {
						pass.Reportf(e.pos, "noalloc: call to %s allocates (%s) in //pgmor:noalloc function %s",
							shortName(e.callee), chain(m.Fset, r), fd.Name.Name)
					}
				}
			}
		}
	}

	for _, s := range stale {
		pass.Reportf(s.pos, "stale pgmor:alloc marker (%q): no allocating construct on this or the next line", s.arg)
	}
	return nil
}

// chain renders why a callee allocates, following at most three links.
func chain(fset *token.FileSet, r *reason) string {
	var parts []string
	for depth := 0; r != nil && depth < 4; depth++ {
		if r.fn != nil {
			parts = append(parts, shortName(r.fn))
			r = r.next
			continue
		}
		posn := fset.Position(r.site.pos)
		parts = append(parts, fmt.Sprintf("%s at %s:%d", r.site.what, shortPath(posn.Filename), posn.Line))
		break
	}
	if len(parts) == 0 {
		return "transitively"
	}
	return strings.Join(parts, " via ")
}

func shortName(fn *types.Func) string {
	name := fn.FullName()
	if p := fn.Pkg(); p != nil {
		name = strings.Replace(name, p.Path(), p.Name(), 1)
	}
	return name
}

func shortPath(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}

// markerPositions maps each pgmor:alloc comment line to its position.
func markerPositions(fset *token.FileSet, f *ast.File) map[int]token.Pos {
	out := make(map[int]token.Pos)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "//pgmor:alloc ") || c.Text == "//pgmor:alloc" {
				out[fset.Position(c.Pos()).Line] = c.Pos()
			}
		}
	}
	return out
}

// collector walks one function body.
type collector struct {
	pass    *analysis.Pass
	pkg     *analysis.Package
	markers *analysis.LineDirectives
	used    map[int]bool // marker lines that suppressed something
	facts   *funcFacts

	selfAppend map[*ast.CallExpr]bool
}

// findSelfAppends records x = append(x, ...) calls — the one append shape
// that reuses its backing array in the steady state.
func (c *collector) findSelfAppends(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !c.isBuiltin(call, "append") || len(call.Args) == 0 {
				continue
			}
			if types.ExprString(call.Args[0]) == types.ExprString(as.Lhs[i]) {
				c.selfAppend[call] = true
			}
		}
		return true
	})
}

func (c *collector) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isBuiltin := c.pkg.Info.Uses[id].(*types.Builtin)
	return isBuiltin
}

// record notes an allocating construct unless a pgmor:alloc marker covers
// its line or the construct sits in an exempt (return-statement) context.
func (c *collector) record(pos token.Pos, exempt bool, what string) {
	if exempt {
		return
	}
	if _, marked := c.markers.At(c.pass.Fset, pos); marked {
		c.used[c.pass.Fset.Position(pos).Line] = true
		return
	}
	c.facts.sites = append(c.facts.sites, site{pos, what})
}

// marked reports (and consumes) a pgmor:alloc marker on the position's line.
func (c *collector) marked(pos token.Pos) bool {
	if _, ok := c.markers.At(c.pass.Fset, pos); ok {
		c.used[c.pass.Fset.Position(pos).Line] = true
		return true
	}
	return false
}

// visit walks the syntax tree; exempt is true inside return statements.
func (c *collector) visit(n ast.Node, exempt bool) {
	if n == nil {
		return
	}
	switch n := n.(type) {
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			c.visit(r, true)
		}
		return

	case *ast.FuncLit:
		c.record(n.Pos(), exempt, "closure literal allocates")
		return // the closure body runs under its own allocation budget

	case *ast.GoStmt:
		c.record(n.Pos(), exempt, "go statement allocates a goroutine")
		c.visit(n.Call, exempt)
		return

	case *ast.CompositeLit:
		switch c.typeOf(n).Underlying().(type) {
		case *types.Slice:
			c.record(n.Pos(), exempt, "slice literal allocates")
		case *types.Map:
			c.record(n.Pos(), exempt, "map literal allocates")
		}
		for _, el := range n.Elts {
			c.visit(el, exempt)
		}
		return

	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if cl, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
				c.record(n.Pos(), exempt, "address of composite literal allocates")
				for _, el := range cl.Elts {
					c.visit(el, exempt)
				}
				return
			}
		}
		c.visit(n.X, exempt)
		return

	case *ast.BinaryExpr:
		if n.Op == token.ADD {
			if b, ok := c.typeOf(n).Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				c.record(n.Pos(), exempt, "string concatenation allocates")
			}
		}
		c.visit(n.X, exempt)
		c.visit(n.Y, exempt)
		return

	case *ast.AssignStmt:
		for _, lhs := range n.Lhs {
			if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
				if _, isMap := c.typeOf(ix.X).Underlying().(*types.Map); isMap {
					c.record(lhs.Pos(), exempt, "map write may allocate")
				}
			}
		}
		// Boxing through assignment: a concrete value stored into an
		// interface-typed variable.
		if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
			for i := range n.Lhs {
				c.checkBoxing(n.Rhs[i], c.typeOf(n.Lhs[i]), exempt)
			}
		}
		for _, e := range n.Lhs {
			c.visit(e, exempt)
		}
		for _, e := range n.Rhs {
			c.visit(e, exempt)
		}
		return

	case *ast.IncDecStmt:
		if ix, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok {
			if _, isMap := c.typeOf(ix.X).Underlying().(*types.Map); isMap {
				c.record(n.Pos(), exempt, "map write may allocate")
			}
		}
		c.visit(n.X, exempt)
		return

	case *ast.ValueSpec:
		if n.Type != nil {
			t := c.pkg.Info.Types[n.Type].Type
			for _, v := range n.Values {
				c.checkBoxing(v, t, exempt)
			}
		}
		for _, v := range n.Values {
			c.visit(v, exempt)
		}
		return

	case *ast.CallExpr:
		c.call(n, exempt)
		return
	}

	// Generic traversal for everything else.
	ast.Inspect(n, func(child ast.Node) bool {
		if child == nil || child == n {
			return child == n
		}
		c.visit(child, exempt)
		return false
	})
}

// call classifies one call expression.
func (c *collector) call(call *ast.CallExpr, exempt bool) {
	fun := ast.Unparen(call.Fun)
	info := c.pkg.Info

	// Conversions.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		target := tv.Type
		if len(call.Args) == 1 {
			src := c.typeOf(call.Args[0])
			switch {
			case isString(target) && isByteOrRuneSlice(src),
				isByteOrRuneSlice(target) && isString(src):
				c.record(call.Pos(), exempt, "string conversion allocates")
			case types.IsInterface(target) && !types.IsInterface(src) && !isUntypedNil(src):
				c.record(call.Pos(), exempt, "conversion to interface boxes the value")
			}
			c.visit(call.Args[0], exempt)
		}
		return
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if _, isBuiltin := info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "make":
				c.record(call.Pos(), exempt, "make allocates")
			case "new":
				c.record(call.Pos(), exempt, "new allocates")
			case "append":
				if !c.selfAppend[call] {
					c.record(call.Pos(), exempt, "append without reuse (not x = append(x, ...)) may allocate")
				}
			case "panic":
				// Panics are exceptional exits; their arguments are exempt
				// like return values.
				exempt = true
			}
			for _, a := range call.Args {
				c.visit(a, exempt)
			}
			return
		}
	}

	callee := c.staticCallee(call)
	switch {
	case callee == nil:
		if !c.marked(call.Pos()) {
			c.facts.dynamics = append(c.facts.dynamics,
				site{call.Pos(), "dynamic call cannot be proven allocation-free"})
		}
	case callee.Pkg() == nil:
		// Universe-scope methods (error.Error): dynamic dispatch.
		if !c.marked(call.Pos()) {
			c.facts.dynamics = append(c.facts.dynamics,
				site{call.Pos(), "interface method call cannot be proven allocation-free"})
		}
	case c.pass.Module.ByPath[callee.Pkg().Path()] != nil:
		if !c.marked(call.Pos()) {
			c.facts.calls = append(c.facts.calls, callEdge{call.Pos(), callee})
		}
	case allocPackages[callee.Pkg().Path()]:
		c.record(call.Pos(), exempt, fmt.Sprintf("call to %s allocates", shortName(callee)))
	}

	// Interface boxing of arguments.
	if sig, ok := info.Types[call.Fun].Type.(*types.Signature); ok && callee != nil &&
		!allocPackages[pkgPath(callee)] && call.Ellipsis == token.NoPos {
		for i, arg := range call.Args {
			var pt types.Type
			switch {
			case i < sig.Params().Len()-1 || (i < sig.Params().Len() && !sig.Variadic()):
				pt = sig.Params().At(i).Type()
			case sig.Variadic():
				pt = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
			}
			if pt != nil && types.IsInterface(pt) && !types.IsInterface(c.typeOf(arg)) && !isUntypedNil(c.typeOf(arg)) {
				c.record(arg.Pos(), exempt, "argument boxed into interface parameter")
			}
		}
	}

	for _, a := range call.Args {
		c.visit(a, exempt)
	}
	c.visit(call.Fun, exempt)
}

// staticCallee resolves the called function when the call target is known at
// compile time; nil means dynamic (func value, interface method).
func (c *collector) staticCallee(call *ast.CallExpr) *types.Func {
	info := c.pkg.Info
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil // func-typed field
			}
			if types.IsInterface(sel.Recv().Underlying()) {
				return nil // interface dispatch
			}
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Package-qualified function.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				return fn
			}
		}
	}
	return nil
}

// checkBoxing flags a concrete value flowing into an interface-typed slot.
func (c *collector) checkBoxing(val ast.Expr, target types.Type, exempt bool) {
	if target == nil || !types.IsInterface(target) {
		return
	}
	src := c.typeOf(val)
	if src == nil || types.IsInterface(src) || isUntypedNil(src) {
		return
	}
	c.record(val.Pos(), exempt, "value boxed into interface assignment")
}

func (c *collector) typeOf(e ast.Expr) types.Type {
	if t := c.pkg.Info.Types[e].Type; t != nil {
		return t
	}
	return types.Typ[types.Invalid]
}

func pkgPath(fn *types.Func) string {
	if p := fn.Pkg(); p != nil {
		return p.Path()
	}
	return ""
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune)
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}
