// The sharded-cluster throughput rig: the same 64-client storm as the
// engine rig, served by N engine shards behind the consistent-hash
// router instead of one engine. The single-engine baseline serializes
// every request through one plan-key mutex and one set of dispatch
// lanes; the cluster splits that serialization N ways and serves
// direct-eligible sorts inline on the client goroutine (the router's
// shed limit replaces the lane's admission queue), so the win shows up
// even without true hardware parallelism. E23 records both tables.
package hypersort

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hypersort/internal/cluster"
	"hypersort/internal/cube"
	"hypersort/internal/engine"
	"hypersort/internal/obs"
	"hypersort/internal/sortutil"
	"hypersort/internal/workload"
	"hypersort/internal/xrand"
)

// clusterBackend abstracts the two serving topologies under comparison;
// both rigs drive it through the same client loop.
type clusterBackend interface {
	Do(req engine.Request) engine.Result
	Close()
}

// runClusterThroughput drives the 64-client storm against be. Reports
// req/s; spill/shed totals are asserted, not reported — a shed request
// would make the comparison dishonest.
func runClusterThroughput(b *testing.B, be clusterBackend, configs []engine.Config, pick func(client int, i int64) int, sheds func() int64) {
	rng := xrand.New(7)
	inputs := make([][]sortutil.Key, throughputClients)
	for i := range inputs {
		inputs[i] = workload.MustGenerate(workload.Uniform, throughputM, rng)
	}
	for _, cfg := range configs {
		if res := be.Do(engine.Request{Config: cfg, Op: engine.OpSort, Keys: inputs[0]}); res.Err != nil {
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
				if res := be.Do(req); res.Err != nil {
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
	if n := sheds(); n != 0 {
		b.Fatalf("%d requests shed during the benchmark: the comparison would be dishonest", n)
	}
}

// newBenchCluster builds the cluster under benchmark: direct substrate
// (matching the strongest single-engine baseline), one replica, and a
// shed limit high enough that the storm is never refused — the rig
// measures throughput, not admission policy.
func newBenchCluster(shards int) *cluster.Cluster {
	c := cluster.New(cluster.Options{
		Shards:    shards,
		Replicas:  1,
		ShedLimit: 1 << 20,
		PoolSize:  1,
		Workers:   throughputClients,
		Batch:     engine.BatchOptions{MaxBatch: 32, MaxLinger: 100 * time.Microsecond},
		Mode:      engine.ModeDirect,
	})
	c.Instrument(obs.NewRegistry())
	return c
}

// newBenchEngine builds the single-engine baseline: the continuous-
// batching dispatcher on the direct substrate — the strongest
// configuration PR 7 left behind (E22), so the cluster's margin is
// measured against the best prior art, not a strawman.
func newBenchEngine() *engine.Engine {
	e := engine.NewOpts(1, throughputClients, engine.BatchOptions{MaxBatch: 32, MaxLinger: 100 * time.Microsecond})
	e.SetMode(engine.ModeDirect)
	e.Instrument(obs.NewRegistry())
	return e
}

// BenchmarkClusterThroughput compares the sharded cluster against the
// single-engine dispatcher on both storm shapes:
//
//   - hot: all 64 clients on ONE damaged-Q_2 configuration — the
//     consistent hash pins it to one home shard, so this measures the
//     inline direct path and replica spill, not shard spread.
//   - mix: clients cycling the four-rung degradation ladder — different
//     plan keys land on different shards, so the per-engine mutexes and
//     lanes stop being a global serialization point.
//
// Reproduce the E23 tables with:
//
//	GOMAXPROCS=4 go test -run '^$' -bench BenchmarkClusterThroughput -benchtime 1000x .
func BenchmarkClusterThroughput(b *testing.B) {
	hot := []engine.Config{{Dim: 2, Faults: []cube.NodeID{3}}}
	mix := throughputConfigs()
	scenarios := []struct {
		name    string
		configs []engine.Config
		pick    func(int, int64) int
	}{
		{"hot", hot, func(int, int64) int { return 0 }},
		{"mix", mix, func(_ int, i int64) int { return int(i) % len(mix) }},
	}
	for _, sc := range scenarios {
		b.Run(sc.name+"/engine", func(b *testing.B) {
			e := newBenchEngine()
			defer e.Close()
			runClusterThroughput(b, e, sc.configs, sc.pick, func() int64 { return 0 })
		})
		b.Run(sc.name+"/cluster-4", func(b *testing.B) {
			c := newBenchCluster(4)
			defer c.Close()
			runClusterThroughput(b, c, sc.configs, sc.pick, func() int64 { return c.Metrics().Sheds })
		})
	}
}

// TestClusterThroughputSmoke is the CI-sized cluster storm, driven
// through the public facade: a concurrent burst over the degradation
// ladder must come back correctly sorted from a sharded engine, with
// every request accounted for and none shed. Run in the CI
// throughput-smoke leg at GOMAXPROCS=1 and 4.
func TestClusterThroughputSmoke(t *testing.T) {
	cl := NewEngine(EngineConfig{Shards: 4, Replicas: 1, PoolSize: 1, BatchWorkers: 32, Mode: ModeDirect})
	defer cl.Close()
	ladder := []Config{
		{Dim: 2},
		{Dim: 2, Faults: []NodeID{3}},
		{Dim: 2, Faults: []NodeID{2, 3}},
		{Dim: 1, Faults: []NodeID{1}},
	}
	rng := xrand.New(13)
	const burst = 64
	inputs := make([][]Key, burst)
	for i := range inputs {
		inputs[i] = workload.MustGenerate(workload.Uniform, 64, rng)
	}
	results := make([]Result, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			keys, _, err := cl.Sort(ladder[i%len(ladder)], inputs[i])
			results[i] = Result{Keys: keys, Err: err}
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
	m := cl.Metrics()
	if m.Requests != burst {
		t.Fatalf("router saw %d requests, want %d", m.Requests, burst)
	}
	if m.Engine.Requests != burst {
		t.Fatalf("shards served %d requests, want %d", m.Engine.Requests, burst)
	}
	if m.Sheds != 0 {
		t.Fatalf("%d requests shed with default thresholds under a %d-burst", m.Sheds, burst)
	}
	t.Logf("cluster smoke: %d requests, %d spills, shards served %v",
		m.Requests, m.Spills, func() []int64 {
			var per []int64
			for _, sm := range m.Shards {
				per = append(per, sm.Requests)
			}
			return per
		}())
}
