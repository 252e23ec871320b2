// Package metrichygiene keeps the metrics surface coherent across its three
// sources of truth: the registration calls in code, the README metric
// tables, and the CI promcheck require lists. Every metric registered in an
// enforced package must be a compile-time-constant, correctly prefixed,
// snake_case, globally unique name — and must appear in the README table and
// the require list for its prefix. Drift in either direction (a registered
// metric nobody documented, or a documented metric nobody registers) is an
// error, so the dashboard docs and the CI gate can never silently rot.
//
// Scope: internal/serve registers pgserve_* families, internal/router
// registers pgrouter_* families. Metrics registered anywhere else (test
// fixtures, harnesses) are not enforced.
package metrichygiene

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"repro/internal/analysis"
)

// Config parameterizes the analyzer so tests can point it at fixture
// packages and synthetic docs.
type Config struct {
	// PrefixFor maps a package-path substring to the metric prefix packages
	// matching it must use. First match in PrefixOrder wins.
	PrefixFor   map[string]string
	PrefixOrder []string

	// ReadmePath, relative to the module root, is the markdown file whose
	// metric tables are cross-checked. Empty disables the README check.
	ReadmePath string

	// RequireFiles maps each metric prefix to the CI require list (one
	// family per line) that must stay in sync. Empty disables the check.
	RequireFiles map[string]string
}

// DefaultConfig is the repo's real layout.
var DefaultConfig = Config{
	PrefixFor: map[string]string{
		"internal/serve":  "pgserve_",
		"internal/router": "pgrouter_",
	},
	PrefixOrder: []string{"internal/serve", "internal/router"},
	ReadmePath:  "README.md",
	RequireFiles: map[string]string{
		"pgserve_":  ".github/promcheck-pgserve.require",
		"pgrouter_": ".github/promcheck-pgrouter.require",
	},
}

var Analyzer = New(DefaultConfig)

// New builds a metrichygiene analyzer over cfg.
func New(cfg Config) *analysis.Analyzer {
	return &analysis.Analyzer{
		Name:       "metrichygiene",
		Doc:        "metric names are prefixed snake_case, unique, and synced with README and CI require lists",
		ModuleWide: true,
		Run:        func(pass *analysis.Pass) error { return run(pass, cfg) },
	}
}

// registerMethods are the obs.Registry calls that create a metric family.
var registerMethods = map[string]bool{
	"Counter": true, "CounterVec": true, "CounterFunc": true,
	"Gauge": true, "GaugeVec": true, "GaugeFunc": true,
	"Histogram": true, "HistogramVec": true,
}

var snakeRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

type registration struct {
	name   string
	prefix string
	pos    token.Pos
}

func run(pass *analysis.Pass, cfg Config) error {
	m := pass.Module

	var regs []registration
	seen := make(map[string]token.Pos)

	for _, pkg := range m.Packages {
		prefix := prefixFor(cfg, pkg.Path())
		if prefix == "" {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				method := registryMethod(pkg.Info, call)
				if method == "" || len(call.Args) == 0 {
					return true
				}
				name, constOK := constantString(pkg.Info, call.Args[0])
				if !constOK {
					pass.Reportf(call.Args[0].Pos(),
						"metrichygiene: metric name must be a compile-time constant string")
					return true
				}
				if !strings.HasPrefix(name, prefix) {
					pass.Reportf(call.Args[0].Pos(),
						"metrichygiene: metric %q must carry the %q prefix (package %s)", name, prefix, pkg.Path())
				}
				if !snakeRE.MatchString(name) {
					pass.Reportf(call.Args[0].Pos(),
						"metrichygiene: metric %q is not snake_case ([a-z][a-z0-9_]*)", name)
				}
				if prev, dup := seen[name]; dup {
					pass.Reportf(call.Args[0].Pos(),
						"metrichygiene: metric %q already registered at %s", name, pass.Fset.Position(prev))
				} else {
					seen[name] = call.Args[0].Pos()
					regs = append(regs, registration{name, prefix, call.Args[0].Pos()})
				}
				return true
			})
		}
	}

	if m.RootDir == "" {
		return nil // synthetic test module without docs to cross-check
	}
	// The README/require-list sync is a whole-surface property: comparing
	// them against a partial package load would flag every family the load
	// left out. Only run the cross-checks when every enforced package set is
	// present (i.e. a ./... run).
	for _, sub := range cfg.PrefixOrder {
		found := false
		for _, pkg := range m.Packages {
			if strings.Contains(pkg.Path(), sub) {
				found = true
				break
			}
		}
		if !found {
			return nil
		}
	}

	enforcedPrefixes := make(map[string]bool)
	for _, p := range cfg.PrefixFor {
		enforcedPrefixes[p] = true
	}

	if cfg.ReadmePath != "" {
		if err := checkReadme(pass, cfg, regs, enforcedPrefixes); err != nil {
			return err
		}
	}
	for prefix, reqPath := range cfg.RequireFiles {
		if err := checkRequireFile(pass, prefix, reqPath, regs); err != nil {
			return err
		}
	}
	return nil
}

// checkReadme cross-checks the README metric tables against registrations,
// in both directions.
func checkReadme(pass *analysis.Pass, cfg Config, regs []registration, enforced map[string]bool) error {
	path := filepath.Join(pass.Module.RootDir, cfg.ReadmePath)
	content, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	documented := parseReadmeTables(string(content))

	docNames := make(map[string]int) // full name -> README line
	for _, d := range documented {
		docNames[d.name] = d.line
	}
	registered := make(map[string]bool)
	for _, r := range regs {
		registered[r.name] = true
		if _, ok := docNames[r.name]; !ok {
			pass.Reportf(r.pos,
				"metrichygiene: metric %s is not documented in the %s metrics table", r.name, cfg.ReadmePath)
		}
	}
	for _, d := range documented {
		if !enforced[d.prefix] {
			continue
		}
		if !registered[d.name] {
			pass.ReportAtf(token.Position{Filename: path, Line: d.line},
				"metrichygiene: %s documents metric %s which is not registered anywhere", cfg.ReadmePath, d.name)
		}
	}
	return nil
}

// checkRequireFile cross-checks one promcheck require list against the
// registrations carrying its prefix.
func checkRequireFile(pass *analysis.Pass, prefix, reqPath string, regs []registration) error {
	path := filepath.Join(pass.Module.RootDir, reqPath)
	content, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	required := make(map[string]int) // family -> line
	for i, raw := range strings.Split(string(content), "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		required[line] = i + 1
	}
	registered := make(map[string]bool)
	for _, r := range regs {
		if r.prefix != prefix {
			continue
		}
		registered[r.name] = true
		if _, ok := required[r.name]; !ok {
			pass.Reportf(r.pos,
				"metrichygiene: metric %s is missing from the CI require list %s", r.name, reqPath)
		}
	}
	for fam, line := range required {
		if !registered[fam] {
			pass.ReportAtf(token.Position{Filename: path, Line: line},
				"metrichygiene: %s requires metric %s which is not registered anywhere", reqPath, fam)
		}
	}
	return nil
}

type documentedMetric struct {
	name   string // full name including prefix
	prefix string
	line   int // 1-based README line
}

var (
	prefixCtxRE = regexp.MustCompile("prefixed `([a-z][a-z0-9_]*_)`")
	backtickRE  = regexp.MustCompile("`([a-z0-9_{},]+)`")
)

// parseReadmeTables extracts metric short names from markdown table rows.
// Only the first cell of each table row is scanned (labels and meaning cells
// also use backticks), short names are expanded through one level of
// {a,b,c} brace groups, and the prefix comes from the nearest preceding
// "prefixed `pgserve_`"-style line.
func parseReadmeTables(content string) []documentedMetric {
	var out []documentedMetric
	prefix := ""
	for i, line := range strings.Split(content, "\n") {
		if m := prefixCtxRE.FindStringSubmatch(line); m != nil {
			prefix = m[1]
			continue
		}
		// A heading starts a new section: whatever tables follow are not
		// metric tables until another "prefixed `...`" line says so.
		if strings.HasPrefix(line, "#") {
			prefix = ""
			continue
		}
		trimmed := strings.TrimSpace(line)
		if prefix == "" || !strings.HasPrefix(trimmed, "|") {
			continue
		}
		cells := strings.Split(trimmed, "|")
		if len(cells) < 2 {
			continue
		}
		first := cells[1]
		if strings.HasPrefix(strings.TrimSpace(first), "---") {
			continue
		}
		for _, m := range backtickRE.FindAllStringSubmatch(first, -1) {
			for _, short := range expandBraces(m[1]) {
				if short == "" {
					continue
				}
				out = append(out, documentedMetric{prefix + short, prefix, i + 1})
			}
		}
	}
	return out
}

// expandBraces expands {a,b,c} groups: "x_{a,b}_total" -> x_a_total, x_b_total.
func expandBraces(s string) []string {
	open := strings.IndexByte(s, '{')
	if open < 0 {
		return []string{s}
	}
	close := strings.IndexByte(s[open:], '}')
	if close < 0 {
		return []string{s} // unbalanced; treat literally (will fail snake check downstream)
	}
	close += open
	var out []string
	for _, mid := range strings.Split(s[open+1:close], ",") {
		out = append(out, expandBraces(s[:open]+mid+s[close+1:])...)
	}
	return out
}

// registryMethod returns the method name when call is a registration call on
// obs.Registry, else "".
func registryMethod(info *types.Info, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !registerMethods[sel.Sel.Name] {
		return ""
	}
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return ""
	}
	recv := s.Recv()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Name() != "Registry" || obj.Pkg() == nil || obj.Pkg().Name() != "obs" {
		return ""
	}
	return sel.Sel.Name
}

// constantString evaluates arg as a compile-time string constant.
func constantString(info *types.Info, arg ast.Expr) (string, bool) {
	tv, ok := info.Types[arg]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// prefixFor returns the required metric prefix for a package path, or "".
func prefixFor(cfg Config, pkgPath string) string {
	for _, sub := range cfg.PrefixOrder {
		if strings.Contains(pkgPath, sub) {
			return cfg.PrefixFor[sub]
		}
	}
	return ""
}
