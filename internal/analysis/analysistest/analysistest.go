// Package analysistest runs an analyzer over fixture packages and checks its
// diagnostics against expectations written in the fixtures themselves — the
// golden-file idiom of golang.org/x/tools/go/analysis/analysistest, rebuilt
// on this repo's dependency-free analysis framework.
//
// Fixtures live under testdata/src/<importpath>/ next to the test. Any line
// of a fixture (.go or .s) may carry an expectation comment:
//
//	_ = make([]int, 4) // want "make allocates"
//
// Each double-quoted string is a regexp that must match a diagnostic
// reported on that line. Matching is bidirectional: a diagnostic with no
// matching expectation fails the test, and an expectation with no matching
// diagnostic fails the test, so fixtures cannot silently stop covering what
// they were written to cover.
package analysistest

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestData returns the absolute path of the calling test's testdata
// directory.
func TestData(t *testing.T) string {
	t.Helper()
	abs, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	return abs
}

// Load parses and type-checks fixture packages rooted at testdata/src, in
// the given order (dependencies first). Standard-library imports are
// resolved from GOROOT source.
func Load(t *testing.T, testdata string, pkgPaths ...string) *analysis.Module {
	t.Helper()
	fset := token.NewFileSet()
	var specs []analysis.PkgSpec
	for _, path := range pkgPaths {
		dir := filepath.Join(testdata, "src", filepath.FromSlash(path))
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatalf("fixture package %s: %v", path, err)
		}
		spec := analysis.PkgSpec{Path: path, Dir: dir, InModule: true}
		for _, e := range entries {
			switch {
			case strings.HasSuffix(e.Name(), "_test.go"):
				// Like `go list`'s GoFiles: tests are not part of the package.
			case strings.HasSuffix(e.Name(), ".go"):
				spec.Files = append(spec.Files, filepath.Join(dir, e.Name()))
			case strings.HasSuffix(e.Name(), ".s"):
				spec.SFiles = append(spec.SFiles, filepath.Join(dir, e.Name()))
			}
		}
		specs = append(specs, spec)
	}
	m, err := analysis.TypeCheck(fset, specs, analysis.StdlibImporter(fset))
	if err != nil {
		t.Fatalf("type-checking fixtures: %v", err)
	}
	return m
}

// Run loads the fixture packages, runs one analyzer, and matches its
// diagnostics against the fixtures' want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	m := Load(t, testdata, pkgPaths...)
	diags, err := analysis.Run(m, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}
	CheckDiagnostics(t, m, diags)
}

// CheckDiagnostics matches diagnostics against the want comments of every
// file in the module, bidirectionally.
func CheckDiagnostics(t *testing.T, m *analysis.Module, diags []analysis.Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*expectation)
	for _, pkg := range m.Packages {
		for _, fname := range append(append([]string(nil), pkg.Spec.Files...), pkg.Spec.SFiles...) {
			content, err := os.ReadFile(fname)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(content), "\n") {
				for _, e := range parseWants(t, fname, i+1, line) {
					wants[key{fname, i + 1}] = append(wants[key{fname, i + 1}], e)
				}
			}
		}
	}

	for _, d := range diags {
		posn := d.Position(m.Fset)
		k := key{posn.Filename, posn.Line}
		matched := false
		for _, w := range wants[k] {
			if !w.matched && w.re.MatchString(d.Message) {
				w.matched = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", rel(posn.Filename), posn.Line, d.Message)
		}
	}

	var missed []string
	for k, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				missed = append(missed, fmt.Sprintf("%s:%d: no diagnostic matching %q", rel(k.file), k.line, w.re))
			}
		}
	}
	sort.Strings(missed)
	for _, msg := range missed {
		t.Error(msg)
	}
}

type expectation struct {
	re      *regexp.Regexp
	matched bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)
var quotedRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// parseWants extracts the expectations of one source line.
func parseWants(t *testing.T, fname string, lineNo int, line string) []*expectation {
	m := wantRE.FindStringSubmatch(line)
	if m == nil {
		return nil
	}
	var out []*expectation
	for _, q := range quotedRE.FindAllStringSubmatch(m[1], -1) {
		re, err := regexp.Compile(strings.ReplaceAll(q[1], `\"`, `"`))
		if err != nil {
			t.Fatalf("%s:%d: bad want regexp %q: %v", rel(fname), lineNo, q[1], err)
		}
		out = append(out, &expectation{re: re})
	}
	if len(out) == 0 {
		t.Fatalf("%s:%d: want comment with no quoted regexps", rel(fname), lineNo)
	}
	return out
}

func rel(p string) string {
	if wd, err := os.Getwd(); err == nil {
		if r, err := filepath.Rel(wd, p); err == nil && !strings.HasPrefix(r, "..") {
			return r
		}
	}
	return p
}
