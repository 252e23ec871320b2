// Command promcheck validates a Prometheus text-format scrape on stdin: it
// must parse under the strict obs parser (HELP/TYPE pairing, label quoting,
// monotone cumulative histogram buckets), it must hold at least one sample,
// and every metric family named in the -require-file must be present. Exit
// status 0 means a well-formed scrape with all required families; anything
// else is a CI failure.
//
//	curl -fsS localhost:8080/metrics | promcheck \
//	  -require-file .github/promcheck-pgserve.require
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/obs"
)

func main() {
	requireFile := flag.String("require-file", "", "file of required family names, one per line (# comments and blanks ignored)")
	flag.Parse()

	var names []string
	if *requireFile != "" {
		var err error
		if names, err = readRequireFile(*requireFile); err != nil {
			fmt.Fprintf(os.Stderr, "promcheck: %v\n", err)
			os.Exit(1)
		}
	}

	sc, err := obs.ParseText(os.Stdin)
	if err != nil {
		fmt.Fprintf(os.Stderr, "promcheck: malformed scrape: %v\n", err)
		os.Exit(1)
	}
	if len(sc.Samples) == 0 {
		fmt.Fprintln(os.Stderr, "promcheck: scrape has 0 samples, want at least 1")
		os.Exit(1)
	}

	missing := 0
	for _, name := range names {
		// A histogram family appears as name_bucket/_sum/_count series; accept
		// the family name if any of its series (or the name itself) is present.
		if sc.Has(name) || sc.Has(name+"_bucket") || sc.Has(name+"_sum") || sc.Has(name+"_count") {
			continue
		}
		fmt.Fprintf(os.Stderr, "promcheck: required metric %q missing from scrape\n", name)
		missing++
	}
	if missing > 0 {
		os.Exit(1)
	}
	fmt.Printf("promcheck: ok (%d samples, %d families typed)\n", len(sc.Samples), len(sc.Types))
}

// readRequireFile reads one family name per line; blank lines and
// #-comments are skipped. The same format metrichygiene keeps in sync with
// the registered metrics.
func readRequireFile(path string) ([]string, error) {
	content, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, raw := range strings.Split(string(content), "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		out = append(out, line)
	}
	return out, nil
}
