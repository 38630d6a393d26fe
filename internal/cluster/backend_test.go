package cluster

import (
	"context"
	"errors"
	"testing"

	"hypersort/internal/engine"
	"hypersort/internal/machine"
	"hypersort/internal/sortutil"
)

// newDirectShard builds the in-process shard a direct-mode deployment
// runs.
func newDirectShard(t *testing.T) Backend {
	t.Helper()
	shard := NewLocalShard(Options{PoolSize: 1, Workers: 2, Mode: engine.ModeDirect})
	t.Cleanup(shard.Close)
	return shard
}

// TestLocalShardDeadOnArrival pins deadline-aware admission on the
// shard: a direct-eligible sort whose context is already cancelled is
// refused with the context's error and never reaches the direct
// substrate.
func TestLocalShardDeadOnArrival(t *testing.T) {
	shard := newDirectShard(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := engine.Request{Config: engine.Config{Dim: 3, Faults: []cubeNode{5}}, Op: engine.OpSort, Keys: []sortutil.Key{3, 1, 2}}
	res := shard.Do(ctx, req)
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("Do with a cancelled context: err=%v direct=%v, want context.Canceled", res.Err, res.Direct)
	}
	if m := shard.Metrics(); m.DirectRequests != 0 {
		t.Fatalf("DirectRequests = %d, want 0 (dead-on-arrival request served)", m.DirectRequests)
	}
}

// TestLocalShardOnePlanLookup pins the plan-cache accounting of a
// direct-mode shard whose configuration has chaos armed: the sort falls
// back to the simulator, and it looks its plan up exactly once on the
// way.
func TestLocalShardOnePlanLookup(t *testing.T) {
	shard := newDirectShard(t)
	cfg := engine.Config{Dim: 3}
	if err := shard.InjectFault(cfg, machine.Injection{Kind: machine.KillNode, Node: 5, At: 1 << 40}); err != nil {
		t.Fatal(err)
	}
	before := shard.Metrics()
	res := shard.Do(context.Background(), engine.Request{Config: cfg, Op: engine.OpSort, Keys: []sortutil.Key{9, 2, 7, 4}})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Direct {
		t.Fatal("sort served direct while chaos injections were armed")
	}
	after := shard.Metrics()
	if got := (after.PlanHits + after.PlanMisses) - (before.PlanHits + before.PlanMisses); got != 1 {
		t.Fatalf("plan lookups for one request = %d, want 1", got)
	}
}
