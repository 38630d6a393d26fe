// Command benchjson is the benchmark regression gate. Run from the
// repository root, it runs the gate groups recorded in the committed
// baseline file BENCH.json and fails when a benchmark regresses past its
// group's tolerances:
//
//	go run ./cmd/benchjson           # gate, as CI runs it
//	go run ./cmd/benchjson -update   # refresh BENCH.json's results in place
//
// A group is one `go test -bench` run: its -bench regexp, its
// -benchtime, optionally the -cpu it is pinned to, the allocs/op, B/op
// and ns/op tolerances its benchmarks are held to, and their baseline
// results. Every gated metric is the per-benchmark median over three
// runs, so one noisy sample on a shared runner neither writes a skewed
// baseline nor trips the gate.
// Custom b.ReportMetric columns (req/s, p99-wait-ns, ...) are tolerated
// and ignored: only ns/op, B/op and allocs/op are recorded.
//
// Comparison rules: a metric regresses when it exceeds
// baseline*(1+tolerance), so a zero baseline (the allocation-free wire
// codec) gates at exactly zero. allocs/op is the tightest metric — it is
// deterministic for the virtual-time simulations. ns/op is gated wide
// enough for shared-runner noise but tight enough that losing the
// execution core's constant-factor wins trips the gate. A baseline entry
// the run did not measure fails the gate: renaming or deleting a gated
// benchmark means refreshing the file, so nothing drops out silently. A
// measured benchmark without a baseline entry is reported and passes.
// A file without groups, or a group without results, fails the gate
// before anything runs: it would otherwise pass having checked nothing.
//
// The history of the baseline lives in git, not in file names.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// baselineFile is the committed baseline, relative to the repository
// root the gate runs from.
const baselineFile = "BENCH.json"

// count is the number of runs of every group; each gated metric is the
// median of its samples.
const count = 3

// Result is one benchmark's measured metrics: each is the median of its
// samples (ties averaged), and Samples records how many runs fed it.
type Result struct {
	Name     string  `json:"name"`
	NsPerOp  float64 `json:"ns_per_op"`
	BPerOp   int64   `json:"b_per_op"`
	AllocsOp int64   `json:"allocs_per_op"`
	Samples  int     `json:"samples,omitempty"`
}

// Tolerance is the allowed fractional increase of each metric over its
// baseline.
type Tolerance struct {
	NsPerOp  float64 `json:"ns_per_op"`
	BPerOp   float64 `json:"b_per_op"`
	AllocsOp float64 `json:"allocs_per_op"`
}

// Group is one `go test` run of the gate and the baseline it checks.
// CPU, when set, pins the run to that GOMAXPROCS (go test -cpu); zero
// runs it at the runner's CPU count.
type Group struct {
	Bench     string    `json:"bench"`
	Benchtime string    `json:"benchtime"`
	CPU       int       `json:"cpu,omitempty"`
	Tolerance Tolerance `json:"tolerance"`
	Results   []Result  `json:"results"`
}

// Doc is the baseline file format.
type Doc struct {
	Groups []Group `json:"groups"`
}

func main() {
	update := flag.Bool("update", false, "rewrite "+baselineFile+"'s results from this run instead of checking them")
	flag.Parse()

	doc, err := readDoc(baselineFile)
	if err != nil {
		fatal(err)
	}
	if !*update {
		if err := checkGateable(doc); err != nil {
			fatal(err)
		}
	}
	ok := true
	for i := range doc.Groups {
		g := &doc.Groups[i]
		cur, err := run(*g)
		if err != nil {
			fatal(err)
		}
		if *update {
			g.Results = cur
		} else if !compare(os.Stdout, *g, cur) {
			ok = false
		}
	}

	if *update {
		enc, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(baselineFile, append(enc, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "benchjson: refreshed %d groups in %s\n", len(doc.Groups), baselineFile)
		return
	}
	if !ok {
		fmt.Println("benchjson: FAIL — regression against baseline")
		os.Exit(1)
	}
	fmt.Println("benchjson: PASS — within baseline tolerances")
}

// run executes one group's benchmarks in the current package and
// returns their per-benchmark medians.
func run(g Group) ([]Result, error) {
	args := []string{"test", "-run", "^$", "-bench", g.Bench, "-benchmem", "-benchtime", g.Benchtime, "-count", strconv.Itoa(count)}
	// Unpinned, go test inherits this process's GOMAXPROCS (the
	// environment variable or the CPU count), which names its -N suffix.
	procs := runtime.GOMAXPROCS(0)
	if g.CPU > 0 {
		procs = g.CPU
		args = append(args, "-cpu", strconv.Itoa(g.CPU))
	}
	args = append(args, ".")
	fmt.Fprintf(os.Stderr, "benchjson: go %s\n", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("benchmark run %q failed: %w", g.Bench, err)
	}
	results, err := parseBench(string(raw), procs)
	if err != nil {
		return nil, err
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no benchmark results matched %q", g.Bench)
	}
	return results, nil
}

// benchLine matches `go test -bench -benchmem` output rows, tolerating
// any custom b.ReportMetric columns between ns/op and the -benchmem
// pair (req/s, p99-wait-ns, ...), e.g.
//
//	BenchmarkFig7c-4   2   119450477 ns/op   23925104 B/op   20650 allocs/op
//	BenchmarkEngineThroughput/batching-4   516145   3923 ns/op   254930 req/s   145 B/op   1 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([\d.]+) ns/op(?:\s+[\d.eE+-]+ [\w/.-]+)*?\s+(\d+) B/op\s+(\d+) allocs/op`)

// parseBench extracts Results from go test -bench output, collapsing
// repeated rows of one benchmark (go test -count N) into per-metric
// medians. Benchmarks without -benchmem columns are skipped (everything
// in this repo reports allocations).
//
// procs is the GOMAXPROCS the benchmarks ran at: go test appends
// "-<procs>" to every name when procs > 1 and nothing at procs == 1, so
// exactly that suffix is stripped and names match across runner sizes.
// A sub-benchmark's own numeric suffix (".../cluster-4") is part of its
// name and survives either way.
func parseBench(out string, procs int) ([]Result, error) {
	samples := make(map[string]*[3][]float64)
	var order []string
	suffix := "-" + strconv.Itoa(procs)
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		if procs > 1 {
			m[1] = strings.TrimSuffix(m[1], suffix)
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", line, err)
		}
		bpo, err := strconv.ParseInt(m[3], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad B/op in %q: %w", line, err)
		}
		apo, err := strconv.ParseInt(m[4], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad allocs/op in %q: %w", line, err)
		}
		s, ok := samples[m[1]]
		if !ok {
			s = new([3][]float64)
			samples[m[1]] = s
			order = append(order, m[1])
		}
		s[0] = append(s[0], ns)
		s[1] = append(s[1], float64(bpo))
		s[2] = append(s[2], float64(apo))
	}
	results := make([]Result, 0, len(order))
	for _, name := range order {
		s := samples[name]
		results = append(results, Result{
			Name:     name,
			NsPerOp:  median(s[0]),
			BPerOp:   int64(median(s[1])),
			AllocsOp: int64(median(s[2])),
			Samples:  len(s[0]),
		})
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Name < results[j].Name })
	return results, nil
}

// median returns the middle sample (the mean of the middle two for even
// counts). The slice is sorted in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// readDoc decodes a baseline file, rejecting unknown keys so that an
// old-format or misspelled file is an error rather than an empty gate.
func readDoc(path string) (Doc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Doc{}, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var d Doc
	if err := dec.Decode(&d); err != nil {
		return Doc{}, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// checkGateable rejects a baseline that would pass having checked
// nothing: one without groups, or with a group that has no results.
func checkGateable(d Doc) error {
	if len(d.Groups) == 0 {
		return fmt.Errorf("%s has no gate groups", baselineFile)
	}
	for _, g := range d.Groups {
		if len(g.Results) == 0 {
			return fmt.Errorf("%s: group %q has no baseline results", baselineFile, g.Bench)
		}
	}
	return nil
}

// compare writes a per-benchmark table for one group to w and returns
// false if any current metric exceeds baseline*(1+tolerance) or any
// baseline entry was not measured.
func compare(w io.Writer, g Group, cur []Result) bool {
	curBy := make(map[string]Result, len(cur))
	for _, c := range cur {
		curBy[c.Name] = c
	}
	tol := g.Tolerance
	ok := true
	for _, b := range g.Results {
		c, found := curBy[b.Name]
		if !found {
			fmt.Fprintf(w, "%-48s in baseline but not measured  MISSING\n", b.Name)
			ok = false
			continue
		}
		delete(curBy, b.Name)
		allocBad := exceeds(float64(c.AllocsOp), float64(b.AllocsOp), tol.AllocsOp)
		bytesBad := exceeds(float64(c.BPerOp), float64(b.BPerOp), tol.BPerOp)
		timeBad := exceeds(c.NsPerOp, b.NsPerOp, tol.NsPerOp)
		status := "ok"
		if allocBad || bytesBad || timeBad {
			status = "REGRESSION"
			ok = false
		}
		fmt.Fprintf(w, "%-48s allocs %8d -> %8d (%+6.1f%%)  B %10d -> %10d  ns %12.0f -> %12.0f  %s\n",
			b.Name, b.AllocsOp, c.AllocsOp, pct(float64(c.AllocsOp), float64(b.AllocsOp)),
			b.BPerOp, c.BPerOp, b.NsPerOp, c.NsPerOp, status)
		if allocBad {
			fmt.Fprintf(w, "  allocs/op regressed beyond %.0f%% tolerance\n", tol.AllocsOp*100)
		}
		if bytesBad {
			fmt.Fprintf(w, "  B/op regressed beyond %.0f%% tolerance\n", tol.BPerOp*100)
		}
		if timeBad {
			fmt.Fprintf(w, "  ns/op regressed beyond %.0f%% tolerance\n", tol.NsPerOp*100)
		}
	}
	for _, c := range cur {
		if _, isNew := curBy[c.Name]; isNew {
			fmt.Fprintf(w, "%-48s (new; no baseline)\n", c.Name)
		}
	}
	return ok
}

// exceeds reports cur > base*(1+tol); a zero baseline therefore admits
// exactly zero.
func exceeds(cur, base, tol float64) bool {
	return cur > base*(1+tol)
}

func pct(cur, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (cur - base) / base * 100
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
