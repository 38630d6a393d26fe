package engine

import (
	"context"
	"errors"
	"maps"
	"slices"
	"sync"
	"testing"
	"time"

	"hypersort/internal/bitonic"
	"hypersort/internal/core"
	"hypersort/internal/cube"
	"hypersort/internal/machine"
	"hypersort/internal/partition"
	"hypersort/internal/sortutil"
	"hypersort/internal/workload"
	"hypersort/internal/xrand"
)

// gateTrace installs a machine trace hook that blocks every traced event
// until the returned release function is called — the deterministic way
// to hold a request "running" on its leased machine while the test
// arranges queue conditions behind it. Must be installed before the
// engine builds any machine.
func gateTrace(e *Engine) (release func()) {
	gate := make(chan struct{})
	e.SetTrace(func(machine.TraceEvent) { <-gate })
	var once sync.Once
	return func() { once.Do(func() { close(gate) }) }
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestCancelWhileWaitingForMachine is the regression test for
// deadline-aware admission on the pool path: a request blocked in the
// machine pool's acquire must return promptly with the context error,
// and must not leak a pool token or a wait slot — the engine stays
// fully usable.
func TestCancelWhileWaitingForMachine(t *testing.T) {
	e := NewOpts(1, 4, BatchOptions{})
	defer e.Close()
	release := gateTrace(e)
	defer release()

	cfg := Config{Dim: 3}
	keys := workload.MustGenerate(workload.Uniform, 64, xrand.New(12))
	first := make(chan Result, 1)
	go func() { first <- e.Do(Request{Config: cfg, Op: OpSort, Keys: keys}) }()
	waitFor(t, "first request to lease the machine", func() bool {
		return e.Metrics().MachinesBuilt == 1
	})

	ctx, cancel := context.WithCancel(context.Background())
	second := make(chan Result, 1)
	go func() {
		second <- e.DoContext(ctx, Request{Config: cfg, Op: OpSort, Keys: keys})
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	select {
	case res := <-second:
		if !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("cancelled request returned %v, want context.Canceled", res.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled request did not return promptly")
	}
	if got := e.Metrics().Cancelled; got != 1 {
		t.Fatalf("Cancelled = %d, want 1", got)
	}
	release()
	if res := <-first; res.Err != nil {
		t.Fatalf("first request failed: %v", res.Err)
	}
	if res := e.Do(Request{Config: cfg, Op: OpSort, Keys: keys}); res.Err != nil {
		t.Fatalf("request after cancellation failed: %v", res.Err)
	}
}

// TestAdmissionRejection holds the only machine of a pool with a
// stalled median request and fires a burst of median requests behind
// it: with a wait bound of one, one follower may wait and every other
// must be refused fast with ErrAdmissionRejected, while every admitted
// request still completes. Selection ops share the bound with sorts —
// every simulated request waits in the same pool.
func TestAdmissionRejection(t *testing.T) {
	e := NewOpts(1, 16, BatchOptions{QueueDepth: 1})
	defer e.Close()
	release := gateTrace(e)
	defer release()

	cfg := Config{Dim: 3, Faults: []cube.NodeID{1}}
	keys := workload.MustGenerate(workload.Uniform, 64, xrand.New(13))
	median := Request{Config: cfg, Op: OpMedian, Keys: keys}
	first := make(chan Result, 1)
	go func() { first <- e.Do(median) }()
	waitFor(t, "first request to lease the machine", func() bool {
		return e.Metrics().MachinesBuilt == 1
	})

	const followers = 6
	results := make(chan Result, followers)
	for i := 0; i < followers; i++ {
		go func() { results <- e.Do(median) }()
	}
	waitFor(t, "admission rejections", func() bool {
		return e.Metrics().AdmissionRejected >= followers-1
	})
	release()
	if res := <-first; res.Err != nil {
		t.Fatalf("first request failed: %v", res.Err)
	}
	rejected := 0
	for i := 0; i < followers; i++ {
		res := <-results
		switch {
		case res.Err == nil:
		case errors.Is(res.Err, ErrAdmissionRejected):
			rejected++
		default:
			t.Fatalf("follower failed with %v, want nil or ErrAdmissionRejected", res.Err)
		}
	}
	if rejected != followers-1 {
		t.Fatalf("rejected = %d, want %d", rejected, followers-1)
	}
	if got := e.Metrics().AdmissionRejected; got != int64(rejected) {
		t.Fatalf("AdmissionRejected metric = %d, want %d", got, rejected)
	}
}

// TestLeaseRunReuse pins the lease-held SortRun: on a one-machine pool,
// sorts that alternate the kernel-shaping options (full-block,
// half-exchange, distribution accounting, full-block again) all land on
// the same lease, so the run is rebuilt or re-armed between them. Each
// result must be bit-identical — keys and stats — to a fresh
// core.FTSortOpt on a fresh machine, and every result's keys, held
// across the later runs, must not change.
func TestLeaseRunReuse(t *testing.T) {
	e := New(1, 1)
	defer e.Close()
	base := Config{Dim: 4, Faults: []cube.NodeID{6}}
	plan, err := partition.BuildPlan(base.Dim, cube.NewNodeSet(base.Faults...))
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		protocol bitonic.Protocol
		account  bool
		m        int
	}{
		{bitonic.FullBlock, false, 300},
		{bitonic.HalfExchange, false, 257},
		{bitonic.FullBlock, true, 400},
		{bitonic.FullBlock, false, 300},
		{bitonic.FullBlock, false, 129},
	}
	rng := xrand.New(51)
	var held, snaps [][]sortutil.Key
	var lastRun *core.SortRun
	for i, st := range steps {
		cfg := base
		cfg.Protocol, cfg.AccountDistribution = st.protocol, st.account
		keys := workload.MustGenerate(workload.Uniform, st.m, rng)
		got := e.Do(Request{Config: cfg, Op: OpSort, Keys: keys})
		if got.Err != nil {
			t.Fatalf("step %d: %v", i, got.Err)
		}
		want, wantRes, err := core.FTSortOpt(machine.MustNew(machine.Config{Dim: base.Dim, Faults: plan.Faults}), plan, keys,
			core.Options{Protocol: st.protocol, AccountDistribution: st.account})
		if err != nil {
			t.Fatalf("step %d reference: %v", i, err)
		}
		if !slices.Equal(got.Keys, want) {
			t.Fatalf("step %d: keys differ from a fresh FTSortOpt", i)
		}
		g, w := got.Res, wantRes
		if g.Makespan != w.Makespan || g.Messages != w.Messages || g.KeysSent != w.KeysSent ||
			g.KeyHops != w.KeyHops || g.Comparisons != w.Comparisons || !maps.Equal(g.PerNode, w.PerNode) {
			t.Fatalf("step %d: stats differ:\nlease %+v\nfresh %+v", i, g, w)
		}
		held = append(held, got.Keys)
		snaps = append(snaps, slices.Clone(got.Keys))

		// The last two steps share options, so the second must re-arm
		// the run the first left on the lease.
		run := leaseRun(t, e, base)
		if run == nil {
			t.Fatalf("step %d: lease holds no run", i)
		}
		if i == len(steps)-1 && run != lastRun {
			t.Fatal("same-option sort rebuilt the lease's run instead of reusing it")
		}
		lastRun = run
	}
	for i := range held {
		if !slices.Equal(held[i], snaps[i]) {
			t.Fatalf("step %d: result keys changed under later runs on the lease", i)
		}
	}
}

// leaseRun peeks at the SortRun held by the one idle lease of cfg's pool.
func leaseRun(t *testing.T, e *Engine, cfg Config) *core.SortRun {
	t.Helper()
	key := poolKey{pk: e.planKey(cfg), cost: cfg.Cost}
	e.mu.Lock()
	p := e.pools[key]
	e.mu.Unlock()
	l := <-p.idle
	defer func() { p.idle <- l }()
	return l.run
}

// TestDoAfterCloseFallsBackToDirectPath: a closed engine must keep
// serving sorts correctly through the pool path (a closed machine
// respawns its workers).
func TestDoAfterCloseFallsBackToDirectPath(t *testing.T) {
	e := NewOpts(2, 4, BatchOptions{})
	cfg := Config{Dim: 3}
	keys := workload.MustGenerate(workload.Uniform, 100, xrand.New(31))
	if res := e.Do(Request{Config: cfg, Op: OpSort, Keys: keys}); res.Err != nil {
		t.Fatal(res.Err)
	}
	e.Close()
	res := e.Do(Request{Config: cfg, Op: OpSort, Keys: keys})
	if res.Err != nil {
		t.Fatalf("sort after Close failed: %v", res.Err)
	}
	if !keysEqual(res.Keys, sortedRef(keys)) {
		t.Fatal("sort after Close returned wrong keys")
	}
}

// TestDeadOnArrivalNeverAdmitted: an already-cancelled context short-
// circuits before planning or queueing.
func TestDeadOnArrivalNeverAdmitted(t *testing.T) {
	e := NewOpts(1, 4, BatchOptions{})
	defer e.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := e.DoContext(ctx, Request{Config: Config{Dim: 3}, Op: OpSort,
		Keys: workload.MustGenerate(workload.Uniform, 50, xrand.New(41))})
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("dead-on-arrival request returned %v, want context.Canceled", res.Err)
	}
	if m := e.Metrics(); m.MachinesBuilt != 0 {
		t.Fatalf("dead-on-arrival request built a machine")
	}
}
