package main

import (
	"bufio"
	"reflect"
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: repro
cpu: Example CPU @ 2.10GHz
BenchmarkBitParallelVsEvent/event-8         	     356	   3034617 ns/op	       329.5 vectors/sec
    bench_test.go:1: benchmark bcd7seg: 40 gates
BenchmarkBitParallelVsEvent/bitparallel-8   	     420	   2842007 ns/op	     22519 vectors/sec
PASS
ok  	repro	2.972s
`
	rep, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOOS != "linux" || rep.Pkg != "repro" || rep.CPU != "Example CPU @ 2.10GHz" {
		t.Errorf("envelope wrong: %+v", rep)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[1]
	if b.Name != "BenchmarkBitParallelVsEvent/bitparallel-8" || b.Iterations != 420 {
		t.Errorf("benchmark line wrong: %+v", b)
	}
	if b.Metrics["vectors/sec"] != 22519 || b.Metrics["ns/op"] != 2842007 {
		t.Errorf("metrics wrong: %v", b.Metrics)
	}
}

func TestParseRejectsEmpty(t *testing.T) {
	if _, err := parse(bufio.NewScanner(strings.NewReader("PASS\n"))); err == nil {
		t.Error("empty bench output accepted")
	}
}

func TestParseBenchLineMalformed(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX", "BenchmarkX 12", "BenchmarkX twelve 3 ns/op", "BenchmarkX 1 nan-unit",
	} {
		if _, ok := parseBenchLine(line); ok {
			t.Errorf("malformed line %q parsed", line)
		}
	}
}

func bench(name string, metrics map[string]float64) Benchmark {
	return Benchmark{Name: name, Iterations: 1, Metrics: metrics}
}

func TestCompare(t *testing.T) {
	for _, tc := range []struct {
		name     string
		old, cur []Benchmark
		want     Comparison
	}{{
		name: "shared metrics only, sorted",
		old:  []Benchmark{bench("BenchmarkA", map[string]float64{"ns/op": 200, "allocs/op": 4, "uW": 1})},
		cur:  []Benchmark{bench("BenchmarkA", map[string]float64{"ns/op": 50, "allocs/op": 0, "ns/gate": 50})},
		want: Comparison{Ratios: []Ratio{
			{Name: "BenchmarkA", Metric: "allocs/op", Old: 4, New: 0},
			{Name: "BenchmarkA", Metric: "ns/op", Old: 200, New: 50},
		}},
	}, {
		name: "GOMAXPROCS suffix ignored",
		old:  []Benchmark{bench("BenchmarkPack/zero/A/lanes=64", map[string]float64{"ns/op": 10})},
		cur:  []Benchmark{bench("BenchmarkPack/zero/A/lanes=64-4", map[string]float64{"ns/op": 5})},
		want: Comparison{Ratios: []Ratio{{Name: "BenchmarkPack/zero/A/lanes=64", Metric: "ns/op", Old: 10, New: 5}}},
	}, {
		name: "repeated names summarized by the median",
		old: []Benchmark{
			bench("BenchmarkB-2", map[string]float64{"ns/op": 10}),
			bench("BenchmarkB-2", map[string]float64{"ns/op": 30}),
		},
		cur: []Benchmark{
			bench("BenchmarkB-2", map[string]float64{"ns/op": 9}),
			bench("BenchmarkB-2", map[string]float64{"ns/op": 1}),
			bench("BenchmarkB-2", map[string]float64{"ns/op": 5}),
		},
		want: Comparison{Ratios: []Ratio{{Name: "BenchmarkB", Metric: "ns/op", Old: 20, New: 5}}},
	}, {
		name: "benchmarks in one report only, new order kept",
		old: []Benchmark{
			bench("BenchmarkGone", map[string]float64{"ns/op": 1}),
			bench("BenchmarkKept", map[string]float64{"ns/op": 2}),
		},
		cur: []Benchmark{
			bench("BenchmarkNew", map[string]float64{"ns/op": 3}),
			bench("BenchmarkKept", map[string]float64{"ns/op": 4}),
		},
		want: Comparison{
			Ratios:  []Ratio{{Name: "BenchmarkKept", Metric: "ns/op", Old: 2, New: 4}},
			OnlyOld: []string{"BenchmarkGone"},
			OnlyNew: []string{"BenchmarkNew"},
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			got := compare(&Report{Benchmarks: tc.old}, &Report{Benchmarks: tc.cur})
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("compare = %+v, want %+v", got, tc.want)
			}
		})
	}
}

func TestWriteComparison(t *testing.T) {
	var b strings.Builder
	err := writeComparison(&b, Comparison{
		Ratios: []Ratio{
			{Name: "BenchmarkA", Metric: "ns/op", Old: 200, New: 50},
			{Name: "BenchmarkA", Metric: "allocs/op", Old: 0, New: 0},
		},
		OnlyNew: []string{"BenchmarkN"},
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines:\n%s", len(lines), b.String())
	}
	if f := strings.Fields(lines[1]); f[len(f)-1] != "0.250" {
		t.Errorf("ratio row %q, want new/old 0.250", lines[1])
	}
	if f := strings.Fields(lines[2]); f[len(f)-1] != "-" {
		t.Errorf("zero-old row %q, want ratio -", lines[2])
	}
	if want := "2 shared metrics; 0 benchmarks only in old, 1 only in new"; lines[3] != want {
		t.Errorf("summary %q, want %q", lines[3], want)
	}
}
