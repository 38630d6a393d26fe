// Command perfbench is the repository's serving benchmark. It builds
// cmd/serve, launches it with its default flags on loopback, drives one
// workload through it from a closed loop of at most two connections,
// checks every response against answers computed from its own inputs,
// and prints the end-to-end metrics. With -trace 1 it instead runs the
// traced variant: an untraced and a traced HTTP phase, then in-process
// calls into each module's public functions on the same inputs, and
// prints the per-layer table.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload small-sorts --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See perfbench/README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	setupRepeats = 9               // set-ups per untraced run; setup_s is their median
	warmLoad     = 1 * time.Second // untimed closed loop before the timed phase
	shardCount   = 2               // shard processes behind the proxy
)

// metric is one named figure in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench holds one run's state: its processes, its temp directory, and
// the output directory.
type bench struct {
	s       spec
	reqs    []httpReq
	out     string
	bin     string
	procs   procSet
	tmpDir  string
	cleanMu sync.Mutex
}

func main() {
	var (
		root    = flag.String("root", ".", "repository root (holds go.mod and cmd/serve)")
		outDir  = flag.String("out", ".bench_build", "directory for build products, temp files and spans")
		name    = flag.String("workload", "", "workload: small-sorts, bulk-sorts, batch-mixed-ops, proxy-small-sorts")
		seed    = flag.Uint64("seed", 1, "seed for the generated inputs")
		seconds = flag.Float64("seconds", 10, "length of the timed phase in seconds")
		traced  = flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	)
	flag.Parse()
	s, ok := specByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown -workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	reqs, err := generate(s, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{s: s, reqs: reqs, out: *outDir}
	go b.onSignal()
	dur := time.Duration(*seconds * float64(time.Second))

	tmpRoot := filepath.Join(*outDir, "tmp")
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		b.fatal(err)
	}
	if b.bin, b.tmpDir, err = buildServe(*root, tmpRoot); err != nil {
		b.fatal(err)
	}
	var res result
	if *traced == 1 {
		res, err = b.tracedRun(dur)
	} else {
		res, err = b.run(dur)
	}
	if err != nil {
		b.fatal(err)
	}
	if err := b.cleanup(); err != nil {
		b.fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		b.fatal(err)
	}
	fmt.Println(string(line))
}

// onSignal stops every child and exits when the benchmark is interrupted.
func (b *bench) onSignal() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	b.fatal(errors.New("interrupted"))
}

// cleanup stops every child process and removes the temp directory.
func (b *bench) cleanup() error {
	b.cleanMu.Lock()
	defer b.cleanMu.Unlock()
	err := b.procs.stopAll()
	if b.tmpDir != "" {
		os.RemoveAll(b.tmpDir)
		b.tmpDir = ""
	}
	return err
}

// fatal reports err with the children's stderr, cleans up and exits 1
// without printing a result line.
func (b *bench) fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	if s := b.procs.stderrs(); s != "" {
		fmt.Fprint(os.Stderr, s)
	}
	if cerr := b.cleanup(); cerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", cerr)
	}
	os.Exit(1)
}

// deployment is one set of running server processes.
type deployment struct {
	procs  []*proc
	base   string   // http://addr of the HTTP-facing process
	shards []string // shard addresses (proxy workloads)
}

func (d deployment) rssMB() float64 {
	var kb int64
	for _, p := range d.procs {
		kb += p.rssKB
	}
	return float64(kb) / 1024
}

// deploy launches the workload's servers with default flags and returns
// once /healthz answers and one warm-up request per (config, op) class
// has been served and checked; the returned duration is setup_s.
func (b *bench) deploy() (deployment, time.Duration, error) {
	var d deployment
	start := time.Now()
	args := []string{"-addr", "127.0.0.1:0"}
	if b.s.proxy {
		shards, err := b.startShards()
		if err != nil {
			return d, 0, err
		}
		d.procs = append(d.procs, shards...)
		for _, p := range shards {
			d.shards = append(d.shards, p.addr)
		}
		args = append(args, "-cluster-mode=proxy", "-shard-addrs="+strings.Join(d.shards, ","))
	}
	front, err := b.procs.start("serve", b.bin, args...)
	if err != nil {
		return d, 0, err
	}
	d.procs = append(d.procs, front)
	d.base = "http://" + front.addr
	client := newClients(1)[0]
	defer client.CloseIdleConnections()
	for {
		if _, err := getBody(client, d.base+"/healthz"); err == nil {
			break
		} else if time.Since(start) > 60*time.Second {
			return d, 0, fmt.Errorf("/healthz: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
	for _, hr := range b.warmups() {
		resp, err := client.Post(d.base+b.s.path, "application/json", bytes.NewReader(hr.body))
		if err != nil {
			return d, 0, fmt.Errorf("warm-up: %w", err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return d, 0, fmt.Errorf("warm-up: %w", err)
		}
		if err := checkResponse(resp.StatusCode, body, hr, b.s.batch > 0); err != nil {
			return d, 0, fmt.Errorf("warm-up response: %w", err)
		}
	}
	return d, time.Since(start), nil
}

// startShards launches the shard processes concurrently.
func (b *bench) startShards() ([]*proc, error) {
	shards := make([]*proc, shardCount)
	errs := make([]error, shardCount)
	var wg sync.WaitGroup
	for i := range shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shards[i], errs[i] = b.procs.start(fmt.Sprintf("shard-%d", i), b.bin, "-addr", "127.0.0.1:0", "-cluster-mode=shard")
		}(i)
	}
	wg.Wait()
	return shards, errors.Join(errs...)
}

// warmups picks the first bodies that together cover every (config, op)
// class, so each class is served once before timing.
func (b *bench) warmups() []*httpReq {
	seen := make([]bool, b.s.numClasses())
	var out []*httpReq
	for i := range b.reqs {
		fresh := false
		for _, sr := range b.reqs[i].subs {
			if !seen[sr.class] {
				seen[sr.class], fresh = true, true
			}
		}
		if fresh {
			out = append(out, &b.reqs[i])
		}
	}
	return out
}

// conns is the closed loop's connection count: at most two, and never
// more than the machine's processors.
func conns() int { return min(2, runtime.NumCPU()) }

// timedPhase runs load between two counter snapshots and fails if the
// phase was not steady.
func (b *bench) timedPhase(d deployment, label string, load func() phase) (phase, counterDelta, error) {
	ctl := newClients(1)[0]
	defer ctl.CloseIdleConnections()
	before, err := readCounters(ctl, d.base)
	if err != nil {
		return phase{}, counterDelta{}, err
	}
	ph := load()
	after, err := readCounters(ctl, d.base)
	if err != nil {
		return phase{}, counterDelta{}, err
	}
	delta := diffCounters(before, after)
	if ph.attempted == 0 {
		return ph, delta, fmt.Errorf("%s phase sent no requests", label)
	}
	return ph, delta, delta.checkQuiet(label)
}

// run is the untraced benchmark: repeated set-ups, a warm closed loop,
// then the timed phase.
func (b *bench) run(dur time.Duration) (result, error) {
	var setups []float64
	var d deployment
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			if err := b.procs.stopAll(); err != nil {
				return result{}, err
			}
		}
		var took time.Duration
		var err error
		if d, took, err = b.deploy(); err != nil {
			return result{}, err
		}
		setups = append(setups, took.Seconds())
	}
	clients := newClients(conns())
	warm := runLoad(clients, d.base+b.s.path, b.s, b.reqs, warmLoad, nil)
	ph, delta, err := b.timedPhase(d, "timed", func() phase {
		return runLoad(clients, d.base+b.s.path, b.s, b.reqs, dur, nil)
	})
	closeClients(clients)
	if err != nil {
		return result{}, err
	}
	if err := b.procs.stopAll(); err != nil {
		return result{}, err
	}
	m := endToEnd(ph, delta)
	m["setup_s"] = metric{medianOf(setups), "s"}
	m["server_rss_mb"] = metric{d.rssMB(), "MB"}
	b.report(ph, m)
	return result{
		Correct:   ph.wrong == 0 && warm.wrong == 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics:   m,
	}, nil
}

// endToEnd computes the HTTP-level metrics of one timed phase.
func endToEnd(ph phase, delta counterDelta) map[string]metric {
	p50, _ := quantile(ph.lat, 0.50)
	p90, _ := quantile(ph.lat, 0.90)
	return map[string]metric{
		"req_per_s":           {float64(len(ph.lat)) / ph.elapsed.Seconds(), "1/s"},
		"latency_p50_ms":      {ms(p50), "ms"},
		"latency_p90_ms":      {ms(p90), "ms"},
		"alloc_bytes_per_req": {float64(delta.allocBytes) / float64(ph.attempted), "B"},
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// report prints the human-readable summary of one timed phase and its
// metrics, one per line.
func (b *bench) report(ph phase, m map[string]metric) {
	fmt.Printf("workload %s (%s)\n  %d connections, closed loop, %.1fs timed\n", b.s.name, b.s.why, conns(), ph.elapsed.Seconds())
	fmt.Printf("  requests: %d attempted, %d failed (%d wrong answers); error_rate %.6f ratio\n",
		ph.attempted, ph.failed, ph.wrong, float64(ph.failed)/float64(max(ph.attempted, 1)))
	for _, q := range []float64{0.90, 0.99} {
		v, beyond := quantile(ph.lat, q)
		note := ""
		if beyond < 10 {
			note = " (fewer than 10 samples beyond it: indicative only)"
		}
		fmt.Printf("  p%.0f %.4f ms with %d of %d samples beyond it%s\n", q*100, ms(v), beyond, len(ph.lat), note)
	}
	fmt.Printf("  req/s per second: %v\n", windowRates(ph.done, time.Second))
	if ph.firstErr != nil {
		fmt.Printf("  first failure: %v\n", ph.firstErr)
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.4f %s\n", n, m[n].Value, m[n].Unit)
	}
}

// windowRates counts completions per window of width w.
func windowRates(done []time.Duration, w time.Duration) []int {
	var out []int
	for _, d := range done {
		i := int(d / w)
		for len(out) <= i {
			out = append(out, 0)
		}
		out[i]++
	}
	return out
}
