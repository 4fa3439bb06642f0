// Command benchjson converts `go test -bench` text output on stdin into
// a JSON document on stdout, so CI can archive benchmark results as a
// machine-readable artifact and track the performance trajectory across
// PRs (BENCH_PR2.json).
//
// Usage:
//
//	go test -bench 'X|Y' -run '^$' . | go run ./cmd/benchjson > bench.json
//
// Each benchmark line
//
//	BenchmarkFoo/sub-8   120  9876543 ns/op  42.5 vectors/sec
//
// becomes {"name":"BenchmarkFoo/sub-8","iterations":120,
// "metrics":{"ns/op":9876543,"vectors/sec":42.5}}. Context lines (goos,
// goarch, pkg, cpu) are captured into the envelope.
//
// With -compare OLD.json it instead reads a new benchjson document on
// stdin and prints, for every benchmark and metric the two reports share,
// the new/old ratio:
//
//	go run ./cmd/benchjson -compare BENCH_PR12.json < BENCH_PR13.json
//
// The comparison is a report only; it exits 0 whatever the ratios are.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the JSON envelope.
type Report struct {
	GOOS       string      `json:"goos,omitempty"`
	GOARCH     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Generated  string      `json:"generated"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	oldPath := flag.String("compare", "", "print new/old metric ratios of the report on stdin against this benchjson `file`")
	flag.Parse()
	if err := run(*oldPath, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(oldPath string, in io.Reader, out io.Writer) error {
	if oldPath == "" {
		rep, err := parse(bufio.NewScanner(in))
		if err != nil {
			return err
		}
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	oldData, err := os.ReadFile(oldPath)
	if err != nil {
		return err
	}
	var old Report
	if err := json.Unmarshal(oldData, &old); err != nil {
		return fmt.Errorf("%s: %w", oldPath, err)
	}
	var cur Report
	if err := json.NewDecoder(in).Decode(&cur); err != nil {
		return fmt.Errorf("new report on stdin: %w", err)
	}
	return writeComparison(out, compare(&old, &cur))
}

func parse(sc *bufio.Scanner) (*Report, error) {
	rep := &Report{Generated: time.Now().UTC().Format(time.RFC3339)}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		b, ok := parseBenchLine(line)
		if !ok {
			continue // log line (b.Logf) or malformed; skip quietly
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rep.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines on stdin")
	}
	return rep, nil
}

// parseBenchLine parses "BenchmarkName-8  N  v1 unit1  v2 unit2 ...".
func parseBenchLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}

// Ratio is one shared (benchmark, metric) pair of a comparison.
type Ratio struct {
	Name, Metric string
	Old, New     float64
}

// Comparison lists the shared pairs in the new report's benchmark order
// (metrics sorted by name) and the benchmarks found in only one report.
type Comparison struct {
	Ratios           []Ratio
	OnlyOld, OnlyNew []string
}

// procSuffix is the -GOMAXPROCS suffix `go test` appends to benchmark
// names; it is dropped so runs on hosts with different CPU counts match.
var procSuffix = regexp.MustCompile(`-\d+$`)

// compare matches benchmarks by name (without the -GOMAXPROCS suffix).
// A name repeated by -count is summarized by the median of each metric.
func compare(old, cur *Report) Comparison {
	oldM, _ := medians(old)
	newM, order := medians(cur)
	var c Comparison
	for _, name := range order {
		om, ok := oldM[name]
		if !ok {
			c.OnlyNew = append(c.OnlyNew, name)
			continue
		}
		nm := newM[name]
		metrics := make([]string, 0, len(nm))
		for m := range nm {
			if _, ok := om[m]; ok {
				metrics = append(metrics, m)
			}
		}
		slices.Sort(metrics)
		for _, m := range metrics {
			c.Ratios = append(c.Ratios, Ratio{Name: name, Metric: m, Old: om[m], New: nm[m]})
		}
	}
	for name := range oldM {
		if _, ok := newM[name]; !ok {
			c.OnlyOld = append(c.OnlyOld, name)
		}
	}
	slices.Sort(c.OnlyOld)
	return c
}

// medians returns each benchmark's per-metric median keyed by its name
// without the -GOMAXPROCS suffix, and the names in first-seen order.
func medians(rep *Report) (map[string]map[string]float64, []string) {
	samples := map[string]map[string][]float64{}
	var order []string
	for _, b := range rep.Benchmarks {
		name := procSuffix.ReplaceAllString(b.Name, "")
		if samples[name] == nil {
			samples[name] = map[string][]float64{}
			order = append(order, name)
		}
		for m, v := range b.Metrics {
			samples[name][m] = append(samples[name][m], v)
		}
	}
	out := make(map[string]map[string]float64, len(samples))
	for name, ms := range samples {
		out[name] = make(map[string]float64, len(ms))
		for m, vs := range ms {
			slices.Sort(vs)
			mid := len(vs) / 2
			if len(vs)%2 == 1 {
				out[name][m] = vs[mid]
			} else {
				out[name][m] = (vs[mid-1] + vs[mid]) / 2
			}
		}
	}
	return out, order
}

// writeComparison prints the comparison as an aligned table. A ratio
// against an old value of 0 prints as "-".
func writeComparison(w io.Writer, c Comparison) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tmetric\told\tnew\tnew/old")
	for _, r := range c.Ratios {
		ratio := "-"
		if r.Old != 0 {
			ratio = strconv.FormatFloat(r.New/r.Old, 'f', 3, 64)
		}
		fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%s\n", r.Name, r.Metric, r.Old, r.New, ratio)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%d shared metrics; %d benchmarks only in old, %d only in new\n",
		len(c.Ratios), len(c.OnlyOld), len(c.OnlyNew))
	return err
}
