package obs

import (
	"os"
	"strings"
	"testing"
)

// FuzzParseText: arbitrary bytes never panic ParseText. Every sample of an
// accepted scrape is found again by Scrape.Has under its name and labels,
// and no two accepted samples are one series. The seeds, which also run in
// every plain go test, are the parser tests' payloads, the exporter's own
// output and a pgserve /metrics scrape.
func FuzzParseText(f *testing.F) {
	reg, _ := buildTestRegistry()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(b.String()))
	real, err := os.ReadFile("testdata/pgserve.metrics")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	for _, payload := range malformedScrapes {
		f.Add([]byte(payload))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		sc, err := ParseText(strings.NewReader(string(payload)))
		if err != nil {
			return
		}
		series := make(map[string]bool, len(sc.Samples))
		for _, sm := range sc.Samples {
			pairs := make([]string, 0, 2*len(sm.Labels))
			for k, v := range sm.Labels {
				pairs = append(pairs, k, v)
			}
			if !sc.Has(sm.Name, pairs...) {
				t.Fatalf("accepted sample %s%v is not found again", sm.Name, sm.Labels)
			}
			key := sm.Name + "{" + labelsKey(sm.Labels, "") + "}"
			if series[key] {
				t.Fatalf("series %s accepted twice", key)
			}
			series[key] = true
		}
	})
}
