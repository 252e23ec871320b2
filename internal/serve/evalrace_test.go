package serve

import (
	"context"
	"sync"
	"testing"
)

// TestEvaluatorConcurrentSweepStress hammers one model from many goroutines
// through every evaluation entry point, once fully modal and once with two
// blocks demoted to the inline fallback, with overlapping entry sets. Its job
// is to let -race catch any unsound sharing of the modal read paths or of
// the fallback scratch the lti kernels allocate per call; results are also
// cross-checked against a serial baseline so a data race that corrupts
// output without tripping the detector still fails the test.
func TestEvaluatorConcurrentSweepStress(t *testing.T) {
	key := ModelKey{Benchmark: "ckt1", Scale: 0.1}
	full, err := buildModel(key, nil)
	if err != nil {
		t.Fatal(err)
	}
	partial := *full
	demoteBlocks(t, &partial, 0, len(full.ROM.Blocks)-1)
	entries := []Entry{{0, 0}, {1, 0}, {0, 1}, {2, 3}, {3, 3}}
	const points = 20
	omegas := []float64{1e6, 1e9, 3e11, 1e13}

	for _, m := range []*Model{full, &partial} {
		eng := NewEngine(4)
		ev := &Evaluator{eng: eng}

		// Serial baselines computed before the stampede.
		wantSweep, err := ev.SweepEntries(context.Background(), m, entries, DefaultWMin, DefaultWMax, points)
		if err != nil {
			t.Fatal(err)
		}
		wantEval, err := ev.EvalBatch(context.Background(), m, omegas)
		if err != nil {
			t.Fatal(err)
		}

		const goroutines = 12
		const rounds = 6
		var wg sync.WaitGroup
		errc := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					sw, err := ev.SweepEntries(context.Background(), m, entries, DefaultWMin, DefaultWMax, points)
					if err != nil {
						errc <- err
						return
					}
					for i := range sw {
						for k := range sw[i].Points {
							if sw[i].Points[k] != wantSweep[i].Points[k] {
								t.Errorf("goroutine %d round %d: sweep entry %d point %d diverged", g, r, i, k)
								return
							}
						}
					}
					hm, err := ev.EvalBatch(context.Background(), m, omegas)
					if err != nil {
						errc <- err
						return
					}
					for k := range hm {
						for i := range hm[k].Data {
							if hm[k].Data[i] != wantEval[k].Data[i] {
								t.Errorf("goroutine %d round %d: eval point %d entry %d diverged", g, r, k, i)
								return
							}
						}
					}
					if _, err := ev.SweepEntries(context.Background(), m, []Entry{{Row: g % m.Outputs, Col: g % m.Ports}}, 1e6, 1e12, 10); err != nil {
						errc <- err
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Fatalf("%d/%d modal blocks: %v", m.ModalBlocks, m.Blocks, err)
		}
		eng.Close()
	}
}
