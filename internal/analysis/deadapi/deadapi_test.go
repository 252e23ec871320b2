package deadapi_test

import (
	"path/filepath"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
	"repro/internal/analysis/deadapi"
)

// TestDeadAPI roots the module at testdata/src, so the analyzer also reads
// the fixtures' tests and the nested module by syntax.
func TestDeadAPI(t *testing.T) {
	testdata := analysistest.TestData(t)
	m := analysistest.Load(t, testdata, "example/internal/lib", "example/internal/user", "example/pkg/free")
	m.RootDir = filepath.Join(testdata, "src")
	diags, err := analysis.Run(m, []*analysis.Analyzer{deadapi.Analyzer})
	if err != nil {
		t.Fatal(err)
	}
	analysistest.CheckDiagnostics(t, m, diags)
}
