package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestFleetRecord runs the router-tier benchmark harness at a small scale and
// checks the record carries the acceptance signal: zero client-visible errors
// on every point, including the degraded run where one replica flaps 503s and
// the router must absorb the failures with retries.
func TestFleetRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up replica fleets")
	}
	defer func(req, conc int, sizes []int, n int, flap time.Duration, scales []float64) {
		fleetRequests, fleetConcurrency, fleetSizes = req, conc, sizes
		fleetDegradedN, fleetFlapPeriod, fleetModelScales = n, flap, scales
	}(fleetRequests, fleetConcurrency, fleetSizes, fleetDegradedN, fleetFlapPeriod, fleetModelScales)
	fleetRequests = 120
	fleetConcurrency = 4
	fleetSizes = []int{1, 2}
	fleetDegradedN = 2
	fleetFlapPeriod = 20 * time.Millisecond
	fleetModelScales = []float64{0.10, 0.14}

	res, err := Fleet(Config{Scale: 0.1})
	if err != nil {
		t.Fatalf("Fleet: %v", err)
	}
	if len(res.Scaling) != 2 {
		t.Fatalf("got %d scaling points, want 2", len(res.Scaling))
	}
	for _, pt := range res.Scaling {
		if pt.ReqPerSec <= 0 || pt.P99Ms <= 0 {
			t.Fatalf("empty measurement: %+v", pt)
		}
		if pt.Errors != 0 {
			t.Errorf("healthy fleet of %d saw %d client-visible errors, want 0", pt.Replicas, pt.Errors)
		}
	}
	if res.Healthy.Errors != 0 {
		t.Errorf("healthy baseline saw %d errors, want 0", res.Healthy.Errors)
	}
	// The router's whole contract: a flapping replica never surfaces to the
	// client, only to the retry counter.
	if res.Degraded.Errors != 0 {
		t.Errorf("degraded fleet saw %d client-visible errors, want 0 (retries %d)",
			res.Degraded.Errors, res.DegradedRetries)
	}

	path := filepath.Join(t.TempDir(), "BENCH_fleet.json")
	if err := WriteRecord(path, res); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back FleetResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("record is not valid JSON: %v", err)
	}
	if len(back.Scaling) != len(res.Scaling) {
		t.Fatal("record round-trip lost points")
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("Render produced nothing")
	}
}
