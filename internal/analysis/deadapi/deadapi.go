// Package deadapi reports exported functions and methods of internal
// packages that nothing references outside their own package's tests.
//
// A reference is a type-checked use in a non-test file of the module (generic
// instances count through Origin), or, in a .go file under the module root
// that the loader did not type-check (other packages' tests, build-tag
// variants, nested modules such as perfbench), a selector X.Name where X
// imports the function's package, a bare name in a non-test file of its own
// directory, or for a method any selector .Name. This over-approximates, so
// code in use is never flagged. Methods named by an interface of the module
// or its imports are exempt: satisfying one is a use no identifier records.
package deadapi

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name:       "deadapi",
	Doc:        "exported functions and methods of internal packages need a reference outside their own package's tests",
	ModuleWide: true,
	Run:        run,
}

// ref names a function by its package's import path.
type ref struct{ pkg, name string }

func run(pass *analysis.Pass) error {
	m := pass.Module
	used, checked, pkgAt := make(map[*types.Func]bool), make(map[string]bool), make(map[string]string)
	for _, pkg := range m.Packages {
		pkgAt[pkg.Spec.Dir] = pkg.Path()
		for _, f := range pkg.Spec.Files {
			checked[f] = true
		}
		for _, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[fn.Origin()] = true
			}
		}
	}
	funcs, methods, err := scanUnchecked(m, checked, pkgAt)
	if err != nil {
		return err
	}
	ifaces := interfaceMethods(m)

	for _, pkg := range m.Packages {
		if !strings.Contains("/"+pkg.Path()+"/", "/internal/") {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil || used[fn] {
					continue
				}
				name := fn.Name()
				if recv := fn.Signature().Recv(); recv != nil {
					// Exempt, or selected outside the package's own tests.
					owners := methods[name]
					if ifaces[name] || len(owners) > 1 || len(owners) == 1 && !owners[pkg.Path()] {
						continue
					}
					t := recv.Type()
					if p, ok := t.(*types.Pointer); ok {
						t = p.Elem()
					}
					name = types.TypeString(t, func(*types.Package) string { return "" }) + "." + name
				} else if funcs[ref{pkg.Path(), name}] {
					continue
				}
				pass.Reportf(fd.Name.Pos(), "deadapi: %s is exported but nothing outside %s's own tests references it", name, pkg.Path())
			}
		}
	}
	return nil
}

// scanUnchecked reads by syntax every .go file under the module root that
// the loader did not type-check, skipping testdata and directories named .*
// or _*; pkgAt maps a package directory to its import path. It returns the
// functions referenced and, per selected name, the set of packages whose own
// tests select it ("" for any other file).
func scanUnchecked(m *analysis.Module, checked map[string]bool, pkgAt map[string]string) (map[ref]bool, map[string]map[string]bool, error) {
	funcs, methods := make(map[ref]bool), make(map[string]map[string]bool)
	fset := token.NewFileSet()
	err := filepath.WalkDir(m.RootDir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		base := d.Name()
		if d.IsDir() {
			if p != m.RootDir && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(base, ".go") || checked[p] {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		// A test file's own package is not referenced by it.
		own, owner := pkgAt[filepath.Dir(p)], ""
		if strings.HasSuffix(base, "_test.go") {
			owner = own
		}
		imports := make(map[string]string)
		for _, spec := range f.Imports {
			ip, _ := strconv.Unquote(spec.Path.Value)
			local := path.Base(ip)
			if pkg := m.ByPath[ip]; pkg != nil {
				local = pkg.Types.Name()
			}
			if spec.Name != nil {
				local = spec.Name.Name
			}
			imports[local] = ip
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" && imports[x.Name] != owner {
					funcs[ref{imports[x.Name], n.Sel.Name}] = true
				}
				if methods[n.Sel.Name] == nil {
					methods[n.Sel.Name] = make(map[string]bool)
				}
				methods[n.Sel.Name][owner] = true
			case *ast.Ident:
				if own != "" && owner == "" {
					funcs[ref{own, n.Name}] = true
				}
			}
			return true
		})
		return nil
	})
	return funcs, methods, err
}

// interfaceMethods collects the method names of every interface type the
// module declares or uses, and of every package-level interface in its
// import closure.
func interfaceMethods(m *analysis.Module) map[string]bool {
	names := make(map[string]bool)
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := make(map[*types.Package]bool)
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		for _, n := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(n).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range m.Packages {
		visit(pkg.Types)
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return names
}
