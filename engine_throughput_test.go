// The continuous-batching throughput rig: many concurrent clients
// hammering sort requests with small inputs — the dispatch-overhead-
// dominated regime the fused dispatcher exists for. Two scenarios:
//
//   - BenchmarkEngineThroughput (the headline): 64 clients on ONE
//     configuration, a Q_2 cube that lost a processor. Every request is
//     fusable with every other, so the dispatcher coalesces the whole
//     client population into deep fused runs — the continuous-batching
//     analogue of many requests against one model.
//
//   - BenchmarkEngineThroughputMix: the same clients spread over a
//     degradation ladder of four configurations. Only requests on the
//     same configuration fuse, so batches are shallower and the pool-only
//     baseline overlaps four machines; the batching win narrows. E20
//     records both tables.
package hypersort

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hypersort/internal/cube"
	"hypersort/internal/engine"
	"hypersort/internal/obs"
	"hypersort/internal/sortutil"
	"hypersort/internal/workload"
	"hypersort/internal/xrand"
)

const (
	throughputClients = 64
	throughputM       = 16 // keys per request: small-M, dispatch-dominated
)

// throughputModes are the engine configurations under comparison: the
// fused dispatcher, the same engine with batching disabled (every
// request takes the unbatched pool path), and direct mode (every sort
// served inline on the direct host-speed substrate).
var throughputModes = []struct {
	name     string
	disabled bool
	mode     engine.Mode
}{
	{"batching", false, engine.ModeSim},
	{"pool-only", true, engine.ModeSim},
	{"direct", false, engine.ModeDirect},
}

// throughputConfigs is the mix scenario's configuration ladder: a
// healthy Q_2 degrading down to a single surviving processor — the
// fault-tolerance regimes the paper's algorithm exists for. Degraded
// cubes have small working sets, so their kernels are cheap and the
// per-request dispatch ceremony dominates.
func throughputConfigs() []engine.Config {
	return []engine.Config{
		{Dim: 2},                              // 4 working nodes
		{Dim: 2, Faults: []cube.NodeID{3}},    // 3 working nodes
		{Dim: 2, Faults: []cube.NodeID{2, 3}}, // 2 working nodes
		{Dim: 1, Faults: []cube.NodeID{1}},    // 1 working node
	}
}

// runThroughput drives one mode of one scenario: clients goroutines
// work-steal requests from a shared counter until b.N are served, each
// request picking its configuration through pick. Reports req/s, the p99
// nanoseconds a request waited for execution capacity (from the
// engine's own queue-wait histogram), and the mean fused batch depth.
func runThroughput(b *testing.B, disabled bool, mode engine.Mode, configs []engine.Config, pick func(client int, i int64) int) {
	rng := xrand.New(7)
	inputs := make([][]sortutil.Key, throughputClients)
	for i := range inputs {
		inputs[i] = workload.MustGenerate(workload.Uniform, throughputM, rng)
	}

	// A private registry per mode: the p99 read below must see only this
	// run's waits, not the process-lifetime default registry shared with
	// every other test.
	reg := obs.NewRegistry()
	// One machine per configuration: a saturated pool is exactly the
	// regime continuous batching targets.
	e := engine.NewOpts(1, throughputClients, engine.BatchOptions{Disabled: disabled, MaxBatch: 32, MaxLinger: 100 * time.Microsecond})
	e.SetMode(mode)
	e.Instrument(reg)
	defer e.Close()
	em := obs.NewEngineMetrics(reg) // same instruments: registration is idempotent

	// Warm plans and pool templates outside the timer.
	for _, cfg := range configs {
		if res := e.Do(engine.Request{Config: cfg, Op: engine.OpSort, Keys: inputs[0]}); res.Err != nil {
			b.Fatal(res.Err)
		}
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	start := time.Now()
	for c := 0; c < throughputClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(b.N) {
					return
				}
				req := engine.Request{
					Config: configs[pick(c, i)],
					Op:     engine.OpSort,
					Keys:   inputs[c],
				}
				if res := e.Do(req); res.Err != nil {
					b.Error(res.Err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "req/s")
	b.ReportMetric(float64(em.QueueWait.Quantile(0.99)), "p99-wait-ns")
	mtr := e.Metrics()
	if mtr.FusedBatches > 0 {
		b.ReportMetric(float64(mtr.FusedRequests)/float64(mtr.FusedBatches), "reqs/batch")
	}
}

// BenchmarkEngineThroughput is the headline scenario: 64 concurrent
// clients issuing small sorts against one damaged cube (Q_2 with one
// fault, three working processors) — batching on (fused dispatches)
// versus off (pool-only baseline).
//
// Run with GOMAXPROCS=4 to reproduce the E20 table:
//
//	GOMAXPROCS=4 go test -run '^$' -bench BenchmarkEngineThroughput -benchtime 2s .
func BenchmarkEngineThroughput(b *testing.B) {
	hot := []engine.Config{{Dim: 2, Faults: []cube.NodeID{3}}}
	for _, mode := range throughputModes {
		b.Run(mode.name, func(b *testing.B) {
			runThroughput(b, mode.disabled, mode.mode, hot, func(int, int64) int { return 0 })
		})
	}
}

// BenchmarkEngineThroughputMix spreads the same client population over
// the four-rung degradation ladder, each request cycling to the next
// rung — the adversarial case for coalescing, since at most a quarter
// of the in-flight requests share a lane.
func BenchmarkEngineThroughputMix(b *testing.B) {
	configs := throughputConfigs()
	for _, mode := range throughputModes {
		b.Run(mode.name, func(b *testing.B) {
			runThroughput(b, mode.disabled, mode.mode, configs, func(_ int, i int64) int { return int(i) % len(configs) })
		})
	}
}

// TestEngineThroughputSmoke is the CI-sized version of the rig: a burst
// of concurrent small sorts against one machine must complete correctly
// AND actually coalesce — the dispatcher's coalescing counters are the
// assertion, so a regression that silently routes everything down the
// unbatched path fails here, not in a benchmark nobody is watching.
func TestEngineThroughputSmoke(t *testing.T) {
	e := engine.NewOpts(1, 32, engine.BatchOptions{MaxLinger: 2 * time.Millisecond})
	defer e.Close()
	cfg := engine.Config{Dim: 4, Faults: []cube.NodeID{3}}
	rng := xrand.New(9)

	const burst = 32
	inputs := make([][]sortutil.Key, burst)
	for i := range inputs {
		inputs[i] = workload.MustGenerate(workload.Uniform, 128, rng)
	}
	results := make([]engine.Result, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = e.Do(engine.Request{Config: cfg, Op: engine.OpSort, Keys: inputs[i]})
		}(i)
	}
	wg.Wait()

	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		if len(res.Keys) != len(inputs[i]) {
			t.Fatalf("request %d: %d keys out, %d in", i, len(res.Keys), len(inputs[i]))
		}
		for j := 1; j < len(res.Keys); j++ {
			if res.Keys[j-1] > res.Keys[j] {
				t.Fatalf("request %d: output not sorted at %d", i, j)
			}
		}
	}
	mtr := e.Metrics()
	if mtr.FusedRequests <= mtr.FusedBatches {
		t.Fatalf("no coalescing: %d fused requests in %d batches (pool of 1, burst of %d)",
			mtr.FusedRequests, mtr.FusedBatches, burst)
	}
	t.Logf("coalescing: %d requests in %d fused batches", mtr.FusedRequests, mtr.FusedBatches)
}
