package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file is the consumer side of the exposition format: a strict parser
// used by the exporter's own tests, by serving-layer tests that assert
// counters move, and by cmd/promcheck (the CI scrape smoke check). It
// validates the invariants a real Prometheus scrape relies on — metric name
// charset, HELP/TYPE pairing, one sample per series, monotone cumulative
// histogram buckets with an le="+Inf" terminal bucket matching _count — and
// rejects anything malformed instead of guessing.

// Sample is one parsed series sample.
type Sample struct {
	// Name is the sample's full name (histogram samples keep their _bucket /
	// _sum / _count suffix).
	Name   string
	Labels map[string]string
	Value  float64
}

// Scrape is a parsed and validated exposition payload.
type Scrape struct {
	Samples []Sample
	// Types maps each declared family name to its TYPE.
	Types map[string]string
}

// Value returns the value of the first sample matching name and every given
// label pair, and whether one exists. Pairs are label, value, label, value…
func (s *Scrape) Value(name string, pairs ...string) (float64, bool) {
	if len(pairs)%2 != 0 {
		panic("obs: Scrape.Value wants label/value pairs")
	}
next:
	for _, sm := range s.Samples {
		if sm.Name != name {
			continue
		}
		for i := 0; i < len(pairs); i += 2 {
			if sm.Labels[pairs[i]] != pairs[i+1] {
				continue next
			}
		}
		return sm.Value, true
	}
	return 0, false
}

// Has reports whether at least one sample of the series exists.
func (s *Scrape) Has(name string, pairs ...string) bool {
	_, ok := s.Value(name, pairs...)
	return ok
}

// ParseText parses one Prometheus text-format payload, validating format
// and histogram invariants. It returns an error on the first violation.
func ParseText(r io.Reader) (*Scrape, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	out := &Scrape{Types: make(map[string]string)}
	help := make(map[string]bool)
	series := make(map[string]bool)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(line, out.Types, help); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		sm, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		fam := familyOf(sm.Name, out.Types)
		if out.Types[fam] == "" {
			return nil, fmt.Errorf("line %d: sample %s has no preceding # TYPE", lineNo, sm.Name)
		}
		if !help[fam] {
			return nil, fmt.Errorf("line %d: sample %s has no preceding # HELP", lineNo, sm.Name)
		}
		// Prometheus rejects a scrape that repeats a series; a label with an
		// empty value is the same series as the label left out.
		key := sm.Name + "{" + labelsKey(sm.Labels, "") + "}"
		if series[key] {
			return nil, fmt.Errorf("line %d: duplicate series %s", lineNo, key)
		}
		series[key] = true
		out.Samples = append(out.Samples, sm)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := validateHistograms(out); err != nil {
		return nil, err
	}
	return out, nil
}

// familyOf strips histogram sample suffixes when the base name is a
// declared histogram family.
func familyOf(name string, types map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && types[base] == "histogram" {
			return base
		}
	}
	return name
}

// parseComment handles # HELP and # TYPE lines.
func parseComment(line string, types map[string]string, help map[string]bool) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !validMetricName(fields[2]) {
			return fmt.Errorf("malformed HELP line %q", line)
		}
		help[fields[2]] = true
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("malformed TYPE line %q", line)
		}
		name, typ := fields[2], fields[3]
		if !validMetricName(name) {
			return fmt.Errorf("TYPE line has invalid metric name %q", name)
		}
		switch typ {
		case "counter", "gauge", "histogram", "summary", "untyped":
		default:
			return fmt.Errorf("unknown TYPE %q for %s", typ, name)
		}
		if prev, dup := types[name]; dup {
			return fmt.Errorf("duplicate TYPE for %s (%s then %s)", name, prev, typ)
		}
		types[name] = typ
	}
	return nil
}

// parseSample parses one `name{labels} value` line.
func parseSample(line string) (Sample, error) {
	sm := Sample{Labels: map[string]string{}}
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		return sm, fmt.Errorf("malformed sample %q", line)
	}
	sm.Name = rest[:i]
	if !validMetricName(sm.Name) {
		return sm, fmt.Errorf("invalid metric name %q", sm.Name)
	}
	rest = rest[i:]
	if rest[0] == '{' {
		end, err := parseLabels(rest, sm.Labels)
		if err != nil {
			return sm, fmt.Errorf("%s: %w", sm.Name, err)
		}
		rest = rest[end:]
	}
	rest = strings.TrimSpace(rest)
	// The format allows an optional trailing timestamp; the exporter never
	// writes one, so reject it here to keep the contract tight.
	if strings.ContainsAny(rest, " \t") {
		return sm, fmt.Errorf("%s: unexpected trailing fields in %q", sm.Name, line)
	}
	v, err := parseFloat(rest)
	if err != nil {
		return sm, fmt.Errorf("%s: bad value %q", sm.Name, rest)
	}
	sm.Value = v
	return sm, nil
}

// parseLabels parses a {a="x",b="y"} block, returning the index just past
// the closing brace.
func parseLabels(s string, into map[string]string) (int, error) {
	i := 1 // past '{'
	for {
		for i < len(s) && (s[i] == ',' || s[i] == ' ') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return i + 1, nil
		}
		j := i
		for j < len(s) && s[j] != '=' {
			j++
		}
		if j >= len(s) {
			return 0, fmt.Errorf("unterminated label block")
		}
		name := s[i:j]
		if name != "le" && !validLabelName(name) || name == "" {
			return 0, fmt.Errorf("invalid label name %q", name)
		}
		if _, dup := into[name]; dup {
			return 0, fmt.Errorf("duplicate label %q", name)
		}
		if j+1 >= len(s) || s[j+1] != '"' {
			return 0, fmt.Errorf("label %q value is not quoted", name)
		}
		val, end, err := parseQuoted(s[j+1:])
		if err != nil {
			return 0, err
		}
		into[name] = val
		i = j + 1 + end
	}
}

// parseQuoted parses a leading quoted string with \\, \" and \n escapes,
// returning the decoded value and the index just past the closing quote.
func parseQuoted(s string) (string, int, error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '"':
			return b.String(), i + 1, nil
		case '\\':
			i++
			if i >= len(s) {
				return "", 0, fmt.Errorf("dangling escape in label value")
			}
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", 0, fmt.Errorf("bad escape \\%c in label value", s[i])
			}
		default:
			b.WriteByte(s[i])
		}
	}
	return "", 0, fmt.Errorf("unterminated label value")
}

// parseFloat accepts the exposition format's value grammar, including +Inf,
// -Inf, and NaN.
func parseFloat(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// histKey groups one histogram child's samples: name plus its non-le labels.
type histKey struct {
	name   string
	labels string
}

// validateHistograms checks every declared histogram family: cumulative
// buckets must be non-decreasing in le, the terminal bucket must be
// le="+Inf", and _count must equal that terminal bucket.
func validateHistograms(s *Scrape) error {
	type hist struct {
		bounds []float64
		counts map[float64]float64
		count  float64
		hasCnt bool
		hasSum bool
	}
	hists := make(map[histKey]*hist)
	get := func(k histKey) *hist {
		h, ok := hists[k]
		if !ok {
			h = &hist{counts: map[float64]float64{}}
			hists[k] = h
		}
		return h
	}
	for _, sm := range s.Samples {
		base := familyOf(sm.Name, s.Types)
		if s.Types[base] != "histogram" || base == sm.Name {
			continue
		}
		k := histKey{name: base, labels: labelsKey(sm.Labels, "le")}
		h := get(k)
		switch {
		case strings.HasSuffix(sm.Name, "_bucket"):
			leStr, ok := sm.Labels["le"]
			if !ok {
				return fmt.Errorf("%s: bucket sample without le label", sm.Name)
			}
			le, err := parseFloat(leStr)
			if err != nil {
				return fmt.Errorf("%s: bad le %q", sm.Name, leStr)
			}
			if _, dup := h.counts[le]; dup {
				return fmt.Errorf("%s: duplicate bucket le=%q", sm.Name, leStr)
			}
			h.bounds = append(h.bounds, le)
			h.counts[le] = sm.Value
		case strings.HasSuffix(sm.Name, "_sum"):
			h.hasSum = true
		case strings.HasSuffix(sm.Name, "_count"):
			h.count = sm.Value
			h.hasCnt = true
		}
	}
	for k, h := range hists {
		if len(h.bounds) == 0 {
			return fmt.Errorf("histogram %s{%s} has no buckets", k.name, k.labels)
		}
		sorted := append([]float64(nil), h.bounds...)
		sort.Float64s(sorted)
		last := sorted[len(sorted)-1]
		if !math.IsInf(last, 1) {
			return fmt.Errorf("histogram %s{%s} has no le=\"+Inf\" terminal bucket", k.name, k.labels)
		}
		prevCount := -1.0
		for _, le := range sorted {
			c := h.counts[le]
			if c < prevCount {
				return fmt.Errorf("histogram %s{%s}: bucket le=%g count %g < preceding %g (not cumulative)",
					k.name, k.labels, le, c, prevCount)
			}
			prevCount = c
		}
		if !h.hasCnt || !h.hasSum {
			return fmt.Errorf("histogram %s{%s} is missing _sum or _count", k.name, k.labels)
		}
		if h.counts[math.Inf(1)] != h.count {
			return fmt.Errorf("histogram %s{%s}: le=\"+Inf\" bucket %g != _count %g",
				k.name, k.labels, h.counts[math.Inf(1)], h.count)
		}
	}
	return nil
}

// labelsKey renders a stable key of every label with a non-empty value
// except the one named skip.
func labelsKey(labels map[string]string, skip string) string {
	keys := make([]string, 0, len(labels))
	for k, v := range labels {
		if k != skip && v != "" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(labels[k]))
		b.WriteByte(',')
	}
	return b.String()
}
