// Command pglint is the repo's static-analysis suite: six repo-specific
// analyzers that machine-enforce the invariants the serving stack's
// correctness and speed rest on.
//
//	noalloc       //pgmor:noalloc functions must not contain allocating
//	              constructs, transitively through same-module callees
//	atomicfield   fields accessed via sync/atomic are never accessed plainly
//	ctxflow       context.Background()/TODO()/WithoutCancel() in request-path
//	              packages require a //pgmor:detach <reason> annotation
//	asmpolicy     amd64 assembly: FP opcode allowlist (never FMA), VZEROUPPER
//	              before RET, TEXT sizes cross-checked against Go stubs
//	metrichygiene metric names are prefixed snake_case, globally unique, and
//	              synchronized with the README tables and CI require lists
//	deadapi       exported functions and methods of internal packages have a
//	              reference outside their own package's tests
//
// Usage:
//
//	go run ./cmd/pglint ./...
//
// pglint loads and type-checks the entire module in one process, so
// cross-package checks (transitive allocation, global metric uniqueness) see
// everything.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/asmpolicy"
	"repro/internal/analysis/atomicfield"
	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/deadapi"
	"repro/internal/analysis/metrichygiene"
	"repro/internal/analysis/noalloc"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pglint [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	os.Exit(run(flag.Args()))
}

func run(patterns []string) int {
	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pglint:", err)
		return 2
	}
	m, err := analysis.LoadModule(root, patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pglint:", err)
		return 2
	}
	diags, err := analysis.Run(m, []*analysis.Analyzer{
		noalloc.Analyzer,
		atomicfield.Analyzer,
		ctxflow.Analyzer,
		asmpolicy.Analyzer,
		metrichygiene.Analyzer,
		deadapi.Analyzer,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pglint:", err)
		return 2
	}
	for _, d := range diags {
		posn := d.Position(m.Fset)
		name := posn.Filename
		if rel, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = rel
		}
		if posn.Column > 0 {
			fmt.Printf("%s:%d:%d: %s\n", name, posn.Line, posn.Column, d.Message)
		} else {
			fmt.Printf("%s:%d: %s\n", name, posn.Line, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "pglint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
