// Package analysis is a small, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis shape, built so the repo can machine-enforce
// its load-bearing invariants (zero-alloc kernels, atomic-field discipline,
// context threading, assembly policy, metric hygiene, no dead internal API)
// without taking any module dependency — the product and its tooling both
// stay pure stdlib.
//
// The model mirrors go/analysis where it matters: an Analyzer has a name,
// documentation, and a Run function over a Pass that reports Diagnostics at
// token positions. It deliberately diverges in one way that makes the
// repo-specific checkers simpler and stronger: a Pass always carries a
// *Module holding the type-checked syntax of every package in the module, so
// whole-program checks (transitive allocation analysis, cross-package atomic
// field usage, global metric-name uniqueness) need no fact serialization.
//
// Analyzers run in two granularities:
//
//   - per-package (the default): Run is invoked once per module package in
//     dependency order, with Pass.Pkg set;
//   - module-wide (ModuleWide: true): Run is invoked exactly once with
//     Pass.Pkg == nil, and the analyzer walks Pass.Module itself.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags. It must be a
	// valid Go identifier.
	Name string

	// Doc is the help text: first line is a one-line summary.
	Doc string

	// ModuleWide selects whole-module granularity: Run is called once with
	// Pass.Pkg == nil instead of once per package.
	ModuleWide bool

	// Run executes the check, reporting findings via Pass.Report. A non-nil
	// error aborts the whole pglint run — it means the analyzer itself
	// failed, not that the code has findings.
	Run func(*Pass) error
}

// Pass carries the inputs and the report sink for one Run invocation.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet

	// Pkg is the package under analysis; nil for ModuleWide analyzers.
	Pkg *Package

	// Module is the whole-module view, always non-nil.
	Module *Module

	// Report delivers one diagnostic.
	Report func(Diagnostic)
}

// Reportf reports a diagnostic at a token position inside a parsed Go or
// assembly file registered with the pass's FileSet.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ReportAtf reports a diagnostic at an explicit file position — the escape
// hatch for findings anchored in files the FileSet does not hold, such as
// README tables or CI require lists.
func (p *Pass) ReportAtf(posn token.Position, format string, args ...any) {
	p.Report(Diagnostic{FilePos: &posn, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding. Exactly one of Pos (a position in the pass
// FileSet) or FilePos (a literal file/line) locates it.
type Diagnostic struct {
	Pos     token.Pos
	FilePos *token.Position
	Message string
}

// Position resolves the diagnostic's location against fset.
func (d Diagnostic) Position(fset *token.FileSet) token.Position {
	if d.FilePos != nil {
		return *d.FilePos
	}
	return fset.Position(d.Pos)
}

// PkgSpec names one package to type-check: its import path, directory, and
// the files selected by the build context.
type PkgSpec struct {
	Path   string
	Dir    string
	Files  []string // Go files, absolute paths
	SFiles []string // assembly files, absolute paths

	// InModule marks packages under analysis: their function bodies are
	// type-checked and their syntax retained. Dependency packages are
	// checked declarations-only.
	InModule bool
}

// Package is one type-checked package.
type Package struct {
	Spec  PkgSpec
	Files []*ast.File // parsed syntax, same order as Spec.Files; module packages only
	Types *types.Package
	Info  *types.Info
}

// Path returns the package import path.
func (p *Package) Path() string { return p.Spec.Path }

// Module is the whole-program view handed to every pass.
type Module struct {
	// RootDir is the module root (where go.mod lives) — the anchor for
	// checks against non-Go files such as README.md and CI require lists.
	RootDir string

	// Path is the module path ("repro" here); empty for synthetic test
	// modules.
	Path string

	Fset *token.FileSet

	// Packages holds the module's packages in dependency order.
	Packages []*Package

	// ByPath indexes Packages by import path.
	ByPath map[string]*Package
}

// Run executes the analyzers over the module and returns their findings
// sorted by position.
func Run(m *Module, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, a := range analyzers {
		if a.ModuleWide {
			pass := &Pass{Analyzer: a, Fset: m.Fset, Module: m, Report: report}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
			}
			continue
		}
		for _, pkg := range m.Packages {
			pass := &Pass{Analyzer: a, Fset: m.Fset, Pkg: pkg, Module: m, Report: report}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analyzer %s: %s: %w", a.Name, pkg.Path(), err)
			}
		}
	}
	SortDiagnostics(m.Fset, diags)
	return diags, nil
}

// SortDiagnostics orders findings by file, line, column, then message.
func SortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := diags[i].Position(fset), diags[j].Position(fset)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Message < diags[j].Message
	})
}
