package cluster

// The router dispatches to shards through the Backend interface so the
// same ring, spill, and shed machinery drives both deployment shapes:
// in-process engine shards (localShard, this file) and shard processes
// behind the wire protocol (RemoteShard, remote.go). The routing layer
// is deliberately ignorant of which one it holds.

import (
	"context"

	"hypersort/internal/engine"
	"hypersort/internal/obs"
	"hypersort/internal/transport"
)

// Backend is one shard as the router sees it: the request surface a
// shard server also serves (transport.Backend — Do, InjectFault,
// DisarmFaults, Metrics) plus the health and load signals routing
// decisions consume.
type Backend interface {
	transport.Backend
	// Healthy reports whether the shard is currently reachable.
	// In-process shards are always healthy; remote shards flip on
	// transport errors and back on successful reprobe.
	Healthy() bool
	// Load is the shard's own in-flight gauge, or -1 when the backend
	// has no view beyond the router's local accounting (in-process
	// shards). For remote shards this is the figure fed back on the
	// shard's most recent response — it sees load from OTHER proxies
	// too, which the router's local atomic cannot.
	Load() int64
	// QueueWaitNs is the shard's reported median queue wait (0 when
	// unknown) — the Retry-After signal.
	QueueWaitNs() int64
	// Instrument attaches observability to the backend (engine bundles
	// for local shards, transport bundles for remote ones).
	Instrument(r *obs.Registry)
	Close()
}

// localShard adapts one in-process engine to the Backend interface;
// InjectFault, DisarmFaults, Metrics, Instrument, and Close are the
// engine's own.
type localShard struct {
	*engine.Engine
}

// NewLocalShard builds one in-process engine shard from opts' per-shard
// engine fields (PoolSize, Workers, Batch, Mode, OracleSample, Trace).
// New builds every shard of an in-process cluster with it, and a shard
// process serves exactly one over the wire, so both deployment shapes
// run identical engines.
func NewLocalShard(opts Options) Backend {
	e := engine.NewOpts(opts.PoolSize, opts.Workers, opts.Batch)
	e.SetMode(opts.Mode)
	e.SetOracleSample(opts.OracleSample)
	if opts.Trace != nil {
		e.SetTrace(opts.Trace)
	}
	return localShard{e}
}

// Do forwards to the engine, which serves direct-eligible sorts inline.
func (b localShard) Do(ctx context.Context, req engine.Request) engine.Result {
	return b.DoContext(ctx, req)
}

func (localShard) Healthy() bool      { return true }
func (localShard) Load() int64        { return -1 }
func (localShard) QueueWaitNs() int64 { return 0 }
