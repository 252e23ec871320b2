package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	SFiles     []string
	Module     *struct {
		Path string
		Dir  string
	}
	Error *struct {
		Err string
	}
}

// LoadModule enumerates patterns (typically "./...") with the go tool,
// type-checks the full dependency closure — module packages with bodies and
// retained syntax, dependencies declarations-only — and returns the module
// view analyzers run over.
//
// The loader shells out to `go list` only for enumeration; all parsing and
// type checking happens in-process with go/parser and go/types, so the whole
// suite needs nothing beyond the standard toolchain.
func LoadModule(rootDir string, patterns []string) (*Module, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-json=ImportPath,Dir,GoFiles,SFiles,Module,Error", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = rootDir
	// CGO off keeps the file sets pure Go, matching what the analyzers can
	// type-check; the repo itself is cgo-free.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	var specs []PkgSpec
	modPath, modDir := "", rootDir
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", p.ImportPath, p.Error.Err)
		}
		inModule := p.Module != nil
		if inModule {
			modPath, modDir = p.Module.Path, p.Module.Dir
		}
		spec := PkgSpec{Path: p.ImportPath, Dir: p.Dir, InModule: inModule}
		for _, f := range p.GoFiles {
			spec.Files = append(spec.Files, filepath.Join(p.Dir, f))
		}
		for _, f := range p.SFiles {
			spec.SFiles = append(spec.SFiles, filepath.Join(p.Dir, f))
		}
		specs = append(specs, spec)
	}

	fset := token.NewFileSet()
	m, err := TypeCheck(fset, specs, nil)
	if err != nil {
		return nil, err
	}
	m.RootDir = modDir
	m.Path = modPath
	return m, nil
}

// TypeCheck parses and type-checks specs in order (dependencies must precede
// dependents, as `go list -deps` emits them). base, if non-nil, resolves
// import paths not covered by specs — the test harness uses it to satisfy
// stdlib imports of fixture packages.
func TypeCheck(fset *token.FileSet, specs []PkgSpec, base types.Importer) (*Module, error) {
	m := &Module{Fset: fset, ByPath: make(map[string]*Package)}
	imp := &moduleImporter{pkgs: make(map[string]*types.Package), base: base}
	sizes := types.SizesFor("gc", runtime.GOARCH)

	for _, spec := range specs {
		if spec.Path == "unsafe" {
			imp.pkgs["unsafe"] = types.Unsafe
			continue
		}
		var files []*ast.File
		mode := parser.SkipObjectResolution
		if spec.InModule {
			mode |= parser.ParseComments
		}
		for _, fname := range spec.Files {
			f, err := parser.ParseFile(fset, fname, nil, mode)
			if err != nil {
				if !spec.InModule {
					continue // tolerate exotic dependency files
				}
				return nil, fmt.Errorf("parse %s: %w", fname, err)
			}
			files = append(files, f)
		}

		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
			Instances:  make(map[*ast.Ident]types.Instance),
		}
		var firstErr error
		conf := types.Config{
			Importer:         imp,
			IgnoreFuncBodies: !spec.InModule,
			FakeImportC:      true,
			Sizes:            sizes,
			Error: func(err error) {
				if firstErr == nil {
					firstErr = err
				}
			},
		}
		tpkg, _ := conf.Check(spec.Path, fset, files, info)
		if spec.InModule && firstErr != nil {
			return nil, fmt.Errorf("type checking %s: %w", spec.Path, firstErr)
		}
		// Dependency packages may have residual soft errors (build-tag
		// corners); their exported declarations are still usable.
		imp.pkgs[spec.Path] = tpkg

		if spec.InModule {
			pkg := &Package{Spec: spec, Files: files, Types: tpkg, Info: info}
			m.Packages = append(m.Packages, pkg)
			m.ByPath[spec.Path] = pkg
		}
	}
	return m, nil
}

// moduleImporter resolves imports from already-checked packages, falling
// back to an optional base importer.
type moduleImporter struct {
	pkgs map[string]*types.Package
	base types.Importer
}

func (i *moduleImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := i.pkgs[path]; ok && p != nil {
		return p, nil
	}
	if i.base != nil {
		return i.base.Import(path)
	}
	return nil, fmt.Errorf("analysis: import %q not loaded (dependency order?)", path)
}

// StdlibImporter returns an importer for standard-library packages that
// type-checks them from $GOROOT source. Used by the analysistest harness,
// where fixture packages import only a handful of stdlib packages.
func StdlibImporter(fset *token.FileSet) types.Importer {
	return importer.ForCompiler(fset, "source", nil)
}
