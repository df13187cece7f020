package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseBenchMedian: repeated samples of one benchmark (go test
// -count 3) record each metric's median, not the last line, and the
// -GOMAXPROCS suffix is stripped so the samples share one name.
func TestParseBenchMedian(t *testing.T) {
	in := strings.Join([]string{
		"goos: linux",
		"BenchmarkScore-8   100   500 ns/op   72 B/op   2 allocs/op",
		"BenchmarkScore-8   100   900 ns/op   64 B/op   2 allocs/op",
		"BenchmarkScore-8   100   300 ns/op   80 B/op   2 allocs/op",
		"BenchmarkOther-2   10    7 ns/op",
		"PASS",
	}, "\n")
	s, err := parseBench(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]float64{
		"BenchmarkScore": {"ns/op": 500, "B/op": 72, "allocs/op": 2},
		"BenchmarkOther": {"ns/op": 7},
	}
	if !reflect.DeepEqual(s.Benchmarks, want) {
		t.Errorf("got %v, want %v", s.Benchmarks, want)
	}
}
