// Example serving demonstrates the pgserve workflow end to end, including
// the persistent ROM store: it starts the ROM service in-process with a
// store directory, reduces a benchmark once via POST /reduce, fires many
// concurrent AC-sweep requests at it, then simulates a process restart — a second server on the
// same store directory preloads the ROM from disk and serves immediately,
// with zero reductions performed. That is the paper's reduce-once /
// evaluate-many reusability argument operationalized across process
// lifetimes, not just within one.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	dir, err := os.MkdirTemp("", "pgserve-store-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// ---- Process 1: cold start. The reduction is paid here, once. ----
	base1, stop1 := startServer(dir)
	fmt.Printf("cold server on %s (store %s)\n\n", base1, dir)

	t0 := time.Now()
	var info modelInfo
	post(base1+"/reduce", map[string]any{"benchmark": "ckt2", "scale": 0.2}, &info)
	fmt.Printf("reduced %d-node, %d-port grid -> order-%d ROM (%d blocks) in %v [source=%s]\n",
		info.Nodes, info.Ports, info.Order, info.Blocks, time.Since(t0).Round(time.Millisecond), info.Source)

	// Concurrent sweeps on the default grid: the model was diagonalized at
	// reduction, so every wave is factorization-free residue passes.
	runWaves(base1, info)
	printHealth(base1)
	stop1()

	// ---- Process 2: warm restart on the same store directory. ----
	fmt.Printf("\n--- restart: new process, same -store-dir ---\n\n")
	base2, stop2 := startServer(dir)
	defer stop2()

	t0 = time.Now()
	var warm modelInfo
	post(base2+"/reduce", map[string]any{"benchmark": "ckt2", "scale": 0.2}, &warm)
	fmt.Printf("same model served in %v [source=%s, cached=%v] — reduction skipped\n",
		time.Since(t0).Round(time.Microsecond), warm.Source, warm.Cached)
	runWaves(base2, warm)
	printHealth(base2)
}

type modelInfo struct {
	ID     string `json:"id"`
	Nodes  int    `json:"nodes"`
	Ports  int    `json:"ports"`
	Order  int    `json:"order"`
	Blocks int    `json:"blocks"`
	Source string `json:"source"`
	Cached bool   `json:"cached"`
}

// startServer boots an in-process pgserve on the given store directory,
// preloading whatever the store already holds (instant on an empty store).
func startServer(dir string) (base string, stop func()) {
	st, err := store.Open(dir)
	if err != nil {
		log.Fatal(err)
	}
	srv := serve.New(serve.Config{Store: st})
	if n, err := srv.PreloadStore(); err != nil {
		log.Fatal(err)
	} else if n > 0 {
		fmt.Printf("preloaded %d model(s) from store, no reduction performed\n", n)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), func() {
		hs.Close()
		srv.Close()
	}
}

// runWaves fires two waves of concurrent default-grid sweeps.
func runWaves(base string, info modelInfo) {
	const clients = 16
	sweep := func(col int) {
		var out struct {
			Points []struct {
				Omega, Mag float64
			} `json:"points"`
		}
		// No wmin/wmax/points: the standard (pre-warmed) grid.
		post(base+"/sweep", map[string]any{
			"model": info.ID, "row": col % 3, "col": col,
		}, &out)
		if len(out.Points) == 0 {
			log.Fatalf("sweep returned no points")
		}
	}
	for wave := 1; wave <= 2; wave++ {
		t := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			c := c
			wg.Add(1)
			go func() { defer wg.Done(); sweep(c % info.Ports) }()
		}
		wg.Wait()
		fmt.Printf("wave %d: %d concurrent default-grid sweeps in %v\n",
			wave, clients, time.Since(t).Round(time.Microsecond))
	}
}

func printHealth(base string) {
	// The subsystem counters live under /healthz's "stats" key.
	var health struct {
		Stats struct {
			Cache struct {
				DiskHits   int64 `json:"disk_hits"`
				DiskMisses int64 `json:"disk_misses"`
				ModalEvals int64 `json:"modal_evals"`
				Canceled   int64 `json:"canceled_evals"`
			} `json:"cache"`
			Repo struct {
				Builds int64 `json:"builds"`
			} `json:"repo"`
			Workers int `json:"workers"`
		} `json:"stats"`
	}
	get(base+"/healthz", &health)
	c := health.Stats.Cache
	fmt.Printf("evals: %d modal, %d canceled; store: %d hits / %d misses; repo: %d reductions\n",
		c.ModalEvals, c.Canceled, c.DiskHits, c.DiskMisses, health.Stats.Repo.Builds)
}

func post(url string, body, out any) {
	buf, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		log.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e map[string]string
		json.NewDecoder(resp.Body).Decode(&e)
		log.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, e["error"])
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatalf("POST %s: decode: %v", url, err)
	}
}

func get(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatalf("GET %s: decode: %v", url, err)
	}
}
