package main

import (
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

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

// gateGroup is a one-benchmark group at the gate's usual tolerances.
func gateGroup(base ...Result) Group {
	return Group{
		Bench: "^BenchmarkX$", Benchtime: "2x",
		Tolerance: Tolerance{NsPerOp: 0.25, BPerOp: 0.25, AllocsOp: 0.10},
		Results:   base,
	}
}

// TestCompareZeroBaseline pins that a zero baseline gates at exactly
// zero: one allocation (or one byte) over an allocation-free baseline is
// a regression, whatever the tolerance.
func TestCompareZeroBaseline(t *testing.T) {
	g := gateGroup(Result{Name: "BenchmarkX/encode", NsPerOp: 1000})
	if !compare(io.Discard, g, []Result{{Name: "BenchmarkX/encode", NsPerOp: 1000}}) {
		t.Fatal("0 allocs/op against a 0 baseline failed the gate")
	}
	for _, cur := range []Result{
		{Name: "BenchmarkX/encode", NsPerOp: 1000, AllocsOp: 1},
		{Name: "BenchmarkX/encode", NsPerOp: 1000, BPerOp: 1},
	} {
		if compare(io.Discard, g, []Result{cur}) {
			t.Errorf("%d allocs/op, %d B/op against a 0 baseline passed the gate", cur.AllocsOp, cur.BPerOp)
		}
	}
	if !exceeds(1, 0, 0.10) {
		t.Error("exceeds(1, 0, 0.10) = false; a zero baseline must admit only zero")
	}
}

// TestCompareUnmeasuredFails pins that a baseline entry the run did not
// measure fails the gate, so a renamed or deleted benchmark cannot drop
// out silently, while a measured benchmark without a baseline passes.
func TestCompareUnmeasuredFails(t *testing.T) {
	a := Result{Name: "BenchmarkX/a", NsPerOp: 100, BPerOp: 64, AllocsOp: 2}
	b := Result{Name: "BenchmarkX/b", NsPerOp: 100, BPerOp: 64, AllocsOp: 2}
	if compare(io.Discard, gateGroup(a, b), []Result{a}) {
		t.Error("baseline entry BenchmarkX/b was not measured but the gate passed")
	}
	if !compare(io.Discard, gateGroup(a), []Result{a, b}) {
		t.Error("a measured benchmark without a baseline entry failed the gate")
	}
}

// TestCompareTolerances pins the per-metric rule cur > base*(1+tol) at
// the group's own tolerances.
func TestCompareTolerances(t *testing.T) {
	base := Result{Name: "BenchmarkX", NsPerOp: 1000, BPerOp: 1000, AllocsOp: 100}
	cases := []struct {
		name string
		cur  Result
		pass bool
	}{
		{"at tolerance", Result{Name: "BenchmarkX", NsPerOp: 1250, BPerOp: 1250, AllocsOp: 110}, true},
		{"allocs over", Result{Name: "BenchmarkX", NsPerOp: 1000, BPerOp: 1000, AllocsOp: 111}, false},
		{"bytes over", Result{Name: "BenchmarkX", NsPerOp: 1000, BPerOp: 1251, AllocsOp: 100}, false},
		{"time over", Result{Name: "BenchmarkX", NsPerOp: 1251, BPerOp: 1000, AllocsOp: 100}, false},
	}
	for _, c := range cases {
		if got := compare(io.Discard, gateGroup(base), []Result{c.cur}); got != c.pass {
			t.Errorf("%s: compare = %v, want %v", c.name, got, c.pass)
		}
	}
}

// TestGateableRejectsEmpty pins that a baseline which would check
// nothing fails the gate: an old-format BENCH_PR*.json (top-level
// "command"/"results", no "groups"), a misspelled key, a file without
// groups, and a group without results.
func TestGateableRejectsEmpty(t *testing.T) {
	dir := t.TempDir()
	for name, body := range map[string]string{
		"old-format": `{"command": "go test -bench .", "results": [{"name": "BenchmarkX", "ns_per_op": 1}]}`,
		"misspelled": `{"group": [{"bench": "^BenchmarkX$", "benchtime": "2x"}]}`,
	} {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readDoc(path); err == nil {
			t.Errorf("%s baseline decoded without error", name)
		}
	}
	if checkGateable(Doc{}) == nil {
		t.Error("a baseline without groups is gateable")
	}
	a := Result{Name: "BenchmarkX", NsPerOp: 100}
	if checkGateable(Doc{Groups: []Group{gateGroup(a), gateGroup()}}) == nil {
		t.Error("a group without results is gateable")
	}
	if err := checkGateable(Doc{Groups: []Group{gateGroup(a)}}); err != nil {
		t.Errorf("a one-group, one-result baseline is not gateable: %v", err)
	}
}

// TestBaselineFile checks the committed BENCH.json: it is gateable,
// every group names a valid benchmark run, and every baseline entry is
// selected by its own group's regexp and appears in exactly one group —
// otherwise the gate would report it unmeasured.
func TestBaselineFile(t *testing.T) {
	doc, err := readDoc(filepath.Join("..", "..", baselineFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkGateable(doc); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, g := range doc.Groups {
		re, err := regexp.Compile(g.Bench)
		if err != nil {
			t.Fatalf("group %q: %v", g.Bench, err)
		}
		if g.Benchtime == "" || g.CPU < 0 {
			t.Errorf("group %q: benchtime %q, cpu %d", g.Bench, g.Benchtime, g.CPU)
		}
		for _, r := range g.Results {
			if top, _, _ := strings.Cut(r.Name, "/"); !re.MatchString(top) {
				t.Errorf("%s is not selected by its group's -bench %q", r.Name, g.Bench)
			}
			if seen[r.Name] {
				t.Errorf("%s appears in more than one group", r.Name)
			}
			seen[r.Name] = true
		}
	}
}
