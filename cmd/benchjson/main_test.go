package main

import "testing"

// benchOutput renders the same two benchmark rows the way go test
// prints them at the given -N name suffix ("" at GOMAXPROCS=1).
func benchOutput(suffix string) string {
	return "goos: linux\n" +
		"BenchmarkClusterThroughput/hot/engine" + suffix + "   \t    1000\t      5617 ns/op\t    178030 req/s\t     374 B/op\t       9 allocs/op\n" +
		"BenchmarkClusterThroughput/hot/cluster-4" + suffix + " \t    1000\t      2152 ns/op\t    464684 req/s\t     344 B/op\t       9 allocs/op\n" +
		"PASS\n"
}

// TestParseBenchNames pins name normalization across runner sizes: the
// GOMAXPROCS suffix go test appends is stripped when present, and a
// sub-benchmark's own numeric suffix (cluster-4) survives at every
// GOMAXPROCS — including 1, where go test appends nothing.
func TestParseBenchNames(t *testing.T) {
	cases := []struct {
		name   string
		out    string
		procs  int
		want   []string
		wantNs []float64
	}{
		{"unsuffixed at GOMAXPROCS=1", benchOutput(""), 1,
			[]string{"BenchmarkClusterThroughput/hot/cluster-4", "BenchmarkClusterThroughput/hot/engine"}, []float64{2152, 5617}},
		{"suffixed at GOMAXPROCS=4", benchOutput("-4"), 4,
			[]string{"BenchmarkClusterThroughput/hot/cluster-4", "BenchmarkClusterThroughput/hot/engine"}, []float64{2152, 5617}},
		{"suffixed at GOMAXPROCS=2", benchOutput("-2"), 2,
			[]string{"BenchmarkClusterThroughput/hot/cluster-4", "BenchmarkClusterThroughput/hot/engine"}, []float64{2152, 5617}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := parseBench(c.out, c.procs)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(c.want) {
				t.Fatalf("parsed %d results, want %d: %+v", len(got), len(c.want), got)
			}
			for i, r := range got {
				if r.Name != c.want[i] || r.NsPerOp != c.wantNs[i] {
					t.Errorf("result %d = %s %.0f ns/op, want %s %.0f", i, r.Name, r.NsPerOp, c.want[i], c.wantNs[i])
				}
			}
		})
	}
}

// TestParseBenchMedians pins -count aggregation: repeated rows of one
// benchmark collapse into per-metric medians.
func TestParseBenchMedians(t *testing.T) {
	out := "BenchmarkFTSort-2 \t 10 \t 300 ns/op \t 64 B/op \t 2 allocs/op\n" +
		"BenchmarkFTSort-2 \t 10 \t 100 ns/op \t 32 B/op \t 1 allocs/op\n" +
		"BenchmarkFTSort-2 \t 10 \t 200 ns/op \t 48 B/op \t 3 allocs/op\n"
	got, err := parseBench(out, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("parsed %d results, want 1", len(got))
	}
	r := got[0]
	if r.Name != "BenchmarkFTSort" || r.NsPerOp != 200 || r.BPerOp != 48 || r.AllocsOp != 2 || r.Samples != 3 {
		t.Fatalf("got %+v, want BenchmarkFTSort 200 ns/op 48 B/op 2 allocs/op over 3 samples", r)
	}
}
