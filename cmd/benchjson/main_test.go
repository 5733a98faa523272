package main

import (
	"strings"
	"testing"
)

// TestParseMultiPackage: a run over two packages prints one `pkg:` header
// per package; each benchmark keeps the package it was printed under.
func TestParseMultiPackage(t *testing.T) {
	stream := `goos: linux
goarch: amd64
pkg: repro/internal/kmeans
cpu: Test CPU @ 2.70GHz
BenchmarkKMeansCluster/dense-2         	       3	   5312134 ns/op	   46720 B/op	       8 allocs/op
BenchmarkKMeansBestRE/longtail-2       	       3	 160000000 ns/op
PASS
ok  	repro/internal/kmeans	1.234s
goos: linux
goarch: amd64
pkg: repro/internal/sampling
cpu: Test CPU @ 2.70GHz
BenchmarkSamplingEvaluate/dense-2      	       3	   2722592 ns/op	   82648 B/op	      63 allocs/op
PASS
ok  	repro/internal/sampling	0.567s
`
	rep, err := parse(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" || rep.CPU != "Test CPU @ 2.70GHz" {
		t.Fatalf("context = %q/%q/%q", rep.Goos, rep.Goarch, rep.CPU)
	}
	want := []struct {
		name, pkg string
		ns        float64
		allocs    int64
	}{
		{"BenchmarkKMeansCluster/dense-2", "repro/internal/kmeans", 5312134, 8},
		{"BenchmarkKMeansBestRE/longtail-2", "repro/internal/kmeans", 160000000, 0},
		{"BenchmarkSamplingEvaluate/dense-2", "repro/internal/sampling", 2722592, 63},
	}
	if len(rep.Benchmarks) != len(want) {
		t.Fatalf("got %d benchmarks, want %d: %+v", len(rep.Benchmarks), len(want), rep.Benchmarks)
	}
	for i, w := range want {
		got := rep.Benchmarks[i]
		if got.Name != w.name || got.Pkg != w.pkg || got.NsPerOp != w.ns || got.AllocsPerOp != w.allocs {
			t.Errorf("benchmark %d = %+v, want name %s pkg %s ns/op %v allocs/op %d", i, got, w.name, w.pkg, w.ns, w.allocs)
		}
	}
}
