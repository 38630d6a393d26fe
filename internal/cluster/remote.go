package cluster

// RemoteShard adapts one shard PROCESS — reached through the transport
// client — to the same Backend interface localShard satisfies, which is
// the whole point of the multi-process mode: the ring, the spill/shed
// thresholds, and the facade are reused verbatim, and only the shard
// boundary moves from a method call to a pipelined socket.

import (
	"hypersort/internal/obs"
	"hypersort/internal/transport"
)

// RemoteShard is one shard process as a router backend. The client
// supplies the whole request surface (Do forwards over the wire — the
// shard runs its own direct fast path), the health and load feedback
// (Healthy, Load, QueueWaitNs, refreshed on every response), Addr, and
// Close (the shard process itself is not ours to stop).
type RemoteShard struct {
	*transport.Client
}

// NewRemoteShard wraps an existing transport client as a backend.
func NewRemoteShard(cl *transport.Client) *RemoteShard { return &RemoteShard{cl} }

// Instrument attaches the transport bundle (RTT, pipeline depth,
// unhealthy transitions) to the underlying client. Registration is
// idempotent, so all shards of one proxy share the same series.
func (b *RemoteShard) Instrument(r *obs.Registry) {
	tm := obs.NewTransportMetrics(r)
	b.Client.Instrument(tm.RTT, tm.PipelineDepth, tm.ShardUnhealthy)
}
