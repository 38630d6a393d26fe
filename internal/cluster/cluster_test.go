package cluster

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"

	"hypersort/internal/cube"
	"hypersort/internal/engine"
	"hypersort/internal/machine"
	"hypersort/internal/obs"
	"hypersort/internal/sortutil"
	"hypersort/internal/workload"
	"hypersort/internal/xrand"
)

func sortedRef(keys []sortutil.Key) []sortutil.Key {
	out := append([]sortutil.Key(nil), keys...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func keysEqual(a, b []sortutil.Key) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestClusterSortAcrossConfigs is the basic routing smoke: a batch
// mixing configurations comes back correctly sorted with per-request
// isolation intact, and every request is accounted for by exactly one
// shard.
func TestClusterSortAcrossConfigs(t *testing.T) {
	c := New(Options{Shards: 3, Replicas: 1, PoolSize: 1, Workers: 4})
	defer c.Close()
	configs := []engine.Config{
		{Dim: 4},
		{Dim: 5, Faults: []cubeNode{3, 17}},
		{Dim: 4, Faults: []cubeNode{1}},
	}
	rng := xrand.New(11)
	var reqs []engine.Request
	for i := 0; i < 12; i++ {
		reqs = append(reqs, engine.Request{
			Config: configs[i%len(configs)],
			Op:     engine.OpSort,
			Keys:   workload.MustGenerate(workload.Uniform, 200, rng),
		})
	}
	results := c.Batch(reqs)
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		if !keysEqual(res.Keys, sortedRef(reqs[i].Keys)) {
			t.Fatalf("request %d: output is not the sorted input", i)
		}
	}
	m := c.Metrics()
	if m.Requests != int64(len(reqs)) {
		t.Fatalf("router requests = %d, want %d", m.Requests, len(reqs))
	}
	if m.Engine.Requests != int64(len(reqs)) {
		t.Fatalf("shard-summed requests = %d, want %d", m.Engine.Requests, len(reqs))
	}
	if m.Sheds != 0 {
		t.Fatalf("unexpected sheds: %d", m.Sheds)
	}
}

// cubeNode abbreviates cube.NodeID in configuration literals.
type cubeNode = cube.NodeID

// TestClusterSpillStaysOnCandidates is the replica-spill determinism
// property: under a seeded storm on ONE hot configuration with an
// aggressive spill threshold, every request is served by the
// configuration's candidate set (home + R replicas) and by nothing else
// — spill widens a hot key's capacity, it never scatters traffic across
// the cluster. The candidate set itself is a pure function of the
// cluster shape, asserted against a second identically-shaped cluster.
func TestClusterSpillStaysOnCandidates(t *testing.T) {
	opts := Options{
		Shards:         4,
		Replicas:       1,
		SpillHighWater: 1, // spill as soon as two requests overlap
		ShedLimit:      1 << 20,
		PoolSize:       1,
		Workers:        8,
		Mode:           engine.ModeDirect,
	}
	c := New(opts)
	defer c.Close()
	cfg := engine.Config{Dim: 5, Faults: []cubeNode{7}}
	cands := c.Candidates(cfg)
	if len(cands) != 2 {
		t.Fatalf("candidates = %v, want home + 1 replica", cands)
	}
	if c2 := New(opts); true {
		got := c2.Candidates(cfg)
		c2.Close()
		if len(got) != len(cands) || got[0] != cands[0] || got[1] != cands[1] {
			t.Fatalf("candidate set not deterministic across identically-shaped clusters: %v vs %v", got, cands)
		}
	}

	const total = 256
	keys := workload.MustGenerate(workload.Uniform, 256, xrand.New(42))
	want := sortedRef(keys)
	var wg sync.WaitGroup
	errs := make(chan error, total)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < total/8; i++ {
				res := c.Do(engine.Request{Config: cfg, Op: engine.OpSort, Keys: keys})
				if res.Err != nil {
					errs <- res.Err
					return
				}
				if !keysEqual(res.Keys, want) {
					errs <- errors.New("unsorted output under spill storm")
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	m := c.Metrics()
	inCands := make(map[int]bool, len(cands))
	for _, s := range cands {
		inCands[s] = true
	}
	var served int64
	for s, sm := range m.Shards {
		if !inCands[s] && sm.Requests != 0 {
			t.Fatalf("non-candidate shard %d served %d requests; storm must stay on %v", s, sm.Requests, cands)
		}
		served += sm.Requests
	}
	if served != total {
		t.Fatalf("candidate shards served %d requests, want %d", served, total)
	}
	if m.Sheds != 0 {
		t.Fatalf("sheds = %d with an unreachable shed limit", m.Sheds)
	}
}

// TestClusterShedsWhenSaturated pins the cluster-wide backpressure
// contract: when the home shard and every replica sit at the shed
// limit, the router refuses the request before it touches any queue,
// and the error satisfies errors.Is for BOTH ErrSaturated and
// engine.ErrAdmissionRejected (so the HTTP layer's existing 503 mapping
// fires unchanged). Load is injected directly into the router's
// in-flight counters to make the saturation state exact rather than
// timing-dependent.
func TestClusterShedsWhenSaturated(t *testing.T) {
	c := New(Options{
		Shards:         3,
		Replicas:       1,
		SpillHighWater: 1,
		ShedLimit:      4,
		PoolSize:       1,
		Workers:        2,
		Mode:           engine.ModeDirect,
	})
	defer c.Close()
	cfg := engine.Config{Dim: 4}
	keys := workload.MustGenerate(workload.Uniform, 64, xrand.New(3))

	cands := c.Candidates(cfg)
	for _, s := range cands {
		c.shards[s].inflight.Add(4)
	}
	res := c.Do(engine.Request{Config: cfg, Op: engine.OpSort, Keys: keys})
	if res.Err == nil {
		t.Fatal("request served with every eligible shard at the shed limit")
	}
	if !errors.Is(res.Err, ErrSaturated) {
		t.Fatalf("shed error %v does not wrap ErrSaturated", res.Err)
	}
	if !errors.Is(res.Err, engine.ErrAdmissionRejected) {
		t.Fatalf("shed error %v does not wrap engine.ErrAdmissionRejected — 503 mapping would break", res.Err)
	}
	if m := c.Metrics(); m.Sheds != 1 {
		t.Fatalf("sheds = %d, want 1", m.Sheds)
	}

	// Relieve ONE replica: the router must spill there instead of
	// shedding.
	c.shards[cands[1]].inflight.Add(-4)
	res = c.Do(engine.Request{Config: cfg, Op: engine.OpSort, Keys: keys})
	if res.Err != nil {
		t.Fatalf("request shed with a free replica available: %v", res.Err)
	}
	if !keysEqual(res.Keys, sortedRef(keys)) {
		t.Fatal("spilled request returned unsorted output")
	}
	m := c.Metrics()
	if m.Spills != 1 {
		t.Fatalf("spills = %d, want 1", m.Spills)
	}
	if m.Shards[cands[1]].Requests != 1 {
		t.Fatalf("relieved replica served %d requests, want 1", m.Shards[cands[1]].Requests)
	}

	// Full relief: traffic returns home.
	c.shards[cands[0]].inflight.Add(-4)
	res = c.Do(engine.Request{Config: cfg, Op: engine.OpSort, Keys: keys})
	if res.Err != nil {
		t.Fatalf("request failed after relief: %v", res.Err)
	}
	if got := c.Metrics().Shards[cands[0]].Requests; got != 1 {
		t.Fatalf("home shard served %d requests after relief, want 1", got)
	}
}

// TestClusterChaosReplansOnHomeShardOnly verifies recovery composes
// with sharding: with spill disabled, an injected mid-run kill strikes
// the configuration's home shard, recovery happens THERE, and no other
// shard replans (none ever saw the configuration). InjectFault arms
// every shard — covering where traffic could go — but only the shard
// that serves the traffic fires.
func TestClusterChaosReplansOnHomeShardOnly(t *testing.T) {
	c := New(Options{Shards: 3, Replicas: 0, PoolSize: 1, Workers: 2})
	defer c.Close()
	cfg := engine.Config{Dim: 4}
	keys := workload.MustGenerate(workload.Uniform, 400, xrand.New(61))

	clean := c.Do(engine.Request{Config: cfg, Op: engine.OpSort, Keys: keys})
	if clean.Err != nil {
		t.Fatal(clean.Err)
	}
	mid := clean.Res.Makespan / 2
	if mid <= 0 {
		t.Fatalf("healthy makespan %d too small to bisect", clean.Res.Makespan)
	}
	if err := c.InjectFault(cfg, machine.Injection{Kind: machine.KillNode, Node: 5, At: mid}); err != nil {
		t.Fatal(err)
	}
	res := c.Do(engine.Request{Config: cfg, Op: engine.OpSort, Keys: keys})
	if res.Err != nil {
		t.Fatalf("recovery through the cluster failed: %v", res.Err)
	}
	if !keysEqual(res.Keys, sortedRef(keys)) {
		t.Fatal("recovered output is not the sorted input")
	}

	home := c.Candidates(cfg)[0]
	m := c.Metrics()
	for s, sm := range m.Shards {
		if s == home {
			if sm.Replans < 1 {
				t.Fatalf("home shard %d replans = %d, want >= 1", s, sm.Replans)
			}
			continue
		}
		if sm.Replans != 0 || sm.Requests != 0 {
			t.Fatalf("shard %d saw recovery activity (replans=%d requests=%d); the kill must stay on home shard %d",
				s, sm.Replans, sm.Requests, home)
		}
	}
	if err := c.DisarmFaults(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestClusterConcurrentSpillShedDispatchRace races the three router
// outcomes against each other: a dispatch storm runs while another
// goroutine drives shard load across the spill and shed thresholds and
// a third arms and disarms chaos (flipping the direct fast path off and
// on). Every request must either return the correctly sorted keys or a
// well-formed shed error. Run under -race in CI, this is the router's
// memory-safety certificate.
func TestClusterConcurrentSpillShedDispatchRace(t *testing.T) {
	c := New(Options{
		Shards:         3,
		Replicas:       1,
		SpillHighWater: 2,
		ShedLimit:      6,
		PoolSize:       1,
		Workers:        4,
		Mode:           engine.ModeDirect,
	})
	defer c.Close()
	cfg := engine.Config{Dim: 4}
	keys := workload.MustGenerate(workload.Uniform, 128, xrand.New(9))
	want := sortedRef(keys)

	var workers sync.WaitGroup
	var osc sync.WaitGroup
	errs := make(chan error, 64)
	stop := make(chan struct{})

	osc.Add(1)
	go func() { // load oscillator: sweeps every shard across both thresholds
		defer osc.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			s := c.shards[i%len(c.shards)]
			s.inflight.Add(6)
			s.inflight.Add(-6)
		}
	}()
	workers.Add(1)
	go func() { // chaos flapper: forces direct/sim path flips mid-storm
		defer workers.Done()
		for i := 0; i < 8; i++ {
			if err := c.InjectFault(cfg, machine.Injection{Kind: machine.KillNode, Node: 3, At: machine.Time(1 + i)}); err != nil {
				errs <- err
				return
			}
			if err := c.DisarmFaults(cfg); err != nil {
				errs <- err
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for i := 0; i < 16; i++ {
				res := c.Do(engine.Request{Config: cfg, Op: engine.OpSort, Keys: keys})
				if res.Err != nil {
					if !errors.Is(res.Err, ErrSaturated) {
						errs <- res.Err
						return
					}
					continue
				}
				if !keysEqual(res.Keys, want) {
					errs <- errors.New("unsorted output under concurrent spill/shed churn")
					return
				}
			}
		}()
	}
	workers.Wait()
	close(stop)
	osc.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestClusterInstrument checks the obs wiring: router counters and
// per-shard series land in the registry and move with traffic.
func TestClusterInstrument(t *testing.T) {
	c := New(Options{Shards: 2, Replicas: 1, PoolSize: 1, Workers: 2, Mode: engine.ModeDirect})
	defer c.Close()
	reg := obs.NewRegistry()
	c.Instrument(reg)
	keys := workload.MustGenerate(workload.Uniform, 64, xrand.New(5))
	cfg := engine.Config{Dim: 4}
	if res := c.Do(engine.Request{Config: cfg, Op: engine.OpSort, Keys: keys}); res.Err != nil {
		t.Fatal(res.Err)
	}
	snap := reg.Snapshot()
	if v := snap["hypersort_cluster_requests_total"]; v.Value != 1 {
		t.Fatalf("cluster requests counter = %d, want 1", v.Value)
	}
	if v := snap["hypersort_cluster_router_decision_ns"]; v.Count != 1 {
		t.Fatalf("router decision histogram count = %d, want 1", v.Count)
	}
	home := c.Candidates(cfg)[0]
	series := fmt.Sprintf("hypersort_cluster_shard_requests_total{shard=%d}", home)
	if v := snap[series]; v.Value != 1 {
		t.Fatalf("%s = %d, want 1", series, v.Value)
	}
}

// TestClusterOneRequestBatchMatchesDo pins the one-request batch
// shortcut: it must answer exactly what DoContext answers for the same
// request — a sort, a dead-on-arrival context, and an invalid
// configuration — on both substrates.
func TestClusterOneRequestBatchMatchesDo(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	keys := workload.MustGenerate(workload.Uniform, 300, xrand.New(5))
	cases := []struct {
		name string
		ctx  context.Context
		req  engine.Request
	}{
		{"sort", context.Background(), engine.Request{Config: engine.Config{Dim: 4, Faults: []cubeNode{5}}, Keys: keys}},
		{"median", context.Background(), engine.Request{Config: engine.Config{Dim: 3}, Op: engine.OpMedian, Keys: keys}},
		{"cancelled", cancelled, engine.Request{Config: engine.Config{Dim: 4}, Keys: keys}},
		{"invalid", context.Background(), engine.Request{Config: engine.Config{Dim: 4, Faults: []cubeNode{99}}, Keys: keys}},
	}
	for _, mode := range []engine.Mode{engine.ModeSim, engine.ModeDirect} {
		c := New(Options{Shards: 2, PoolSize: 1, Workers: 2, Mode: mode})
		for _, tc := range cases {
			want := c.DoContext(tc.ctx, tc.req)
			got := c.BatchContext(tc.ctx, []engine.Request{tc.req})
			if len(got) != 1 {
				t.Fatalf("%s/%s: %d results, want 1", mode, tc.name, len(got))
			}
			g := got[0]
			if fmt.Sprint(g.Err) != fmt.Sprint(want.Err) {
				t.Errorf("%s/%s: batch err %v, DoContext err %v", mode, tc.name, g.Err, want.Err)
			}
			if errors.Is(want.Err, context.Canceled) != errors.Is(g.Err, context.Canceled) {
				t.Errorf("%s/%s: batch err %v lost context.Canceled", mode, tc.name, g.Err)
			}
			if !keysEqual(g.Keys, want.Keys) || g.Value != want.Value || g.Direct != want.Direct {
				t.Errorf("%s/%s: batch result differs from DoContext", mode, tc.name)
			}
		}
		if m := c.Metrics(); m.Requests != 2*int64(len(cases)) {
			t.Errorf("%s: router counted %d requests, want %d", mode, m.Requests, 2*len(cases))
		}
		c.Close()
	}
}
