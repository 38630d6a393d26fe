// The wire-protocol overhead rig (E25). Two questions, two benchmarks:
//
//   - BenchmarkTransportCodec: what does the proxy pay per request just
//     to cross the process boundary — encode a request, decode it shard-
//     side, encode the result, decode it proxy-side? Steady state must
//     be allocation-free: buffers and frames are reused, and the key
//     payload is framed zero-copy on encode. BENCH.json gates
//     ns/op and allocs/op on this path.
//   - BenchmarkMultiProcessCluster: the same 64-client storm as E23,
//     served by the in-process 4-shard cluster versus four wire-protocol
//     shard servers behind RemoteShard backends (loopback TCP — the
//     in-test stand-in for shard processes). On a multi-core host the
//     remote topology buys real parallelism per process; on any host
//     the delta against cluster-4 is the transport tax.
package hypersort

import (
	"context"
	"net"
	"testing"
	"time"

	"hypersort/internal/cluster"
	"hypersort/internal/engine"
	"hypersort/internal/machine"
	"hypersort/internal/obs"
	"hypersort/internal/sortutil"
	"hypersort/internal/transport"
	"hypersort/internal/xrand"
)

// BenchmarkTransportCodec measures the four codec operations a request
// pays end to end, on a storm-sized (4096-key) payload.
func BenchmarkTransportCodec(b *testing.B) {
	rng := xrand.New(3)
	keys := make([]sortutil.Key, 4096)
	for i := range keys {
		keys[i] = sortutil.Key(rng.Uint64())
	}
	req := engine.Request{
		Config: engine.Config{Dim: 6, Faults: []NodeID{3, 17, 40}},
		Op:     engine.OpSort,
		Keys:   keys,
	}
	res := engine.Result{Keys: keys, Res: machine.Result{Makespan: 123456, Comparisons: 1 << 20, KeyHops: 1 << 18}}
	fb := transport.Feedback{Inflight: 7, QueueWaitNs: 12345}

	// Each sub-benchmark runs one warm-up operation before the timed
	// loop: the reusable buffer (encode) and the frame's key slices
	// (decode) grow once, then the steady state — the state the gate
	// cares about — is allocation-free.
	b.Run("encode-request", func(b *testing.B) {
		buf := transport.AppendRequest(nil, 0, req, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = transport.AppendRequest(buf[:0], uint64(i), req, 0)
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("decode-request", func(b *testing.B) {
		body := transport.AppendRequest(nil, 1, req, 0)[4:]
		var f transport.Frame
		if err := transport.DecodeFrame(&f, body); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := transport.DecodeFrame(&f, body); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(body)))
	})
	b.Run("encode-result", func(b *testing.B) {
		buf := transport.AppendResult(nil, 0, res, fb)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = transport.AppendResult(buf[:0], uint64(i), res, fb)
		}
		b.SetBytes(int64(len(buf)))
	})
	b.Run("decode-result", func(b *testing.B) {
		body := transport.AppendResult(nil, 1, res, fb)[4:]
		var f transport.Frame
		if err := transport.DecodeFrame(&f, body); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := transport.DecodeFrame(&f, body); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(body)))
	})
}

// newRemoteBenchCluster stands up `shards` wire-protocol servers (each
// wrapping the same engine configuration newBenchCluster gives an
// in-process shard) and a cluster routing to them through RemoteShard
// backends over loopback TCP. The returned close function tears down
// clients, then servers, then engines.
func newRemoteBenchCluster(b *testing.B, shards int) (*cluster.Cluster, func()) {
	b.Helper()
	engines := make([]cluster.Backend, shards)
	servers := make([]*transport.Server, shards)
	backends := make([]cluster.Backend, shards)
	for i := range backends {
		e := cluster.NewLocalShard(cluster.Options{
			PoolSize: 1,
			Workers:  throughputClients,
			Mode:     engine.ModeDirect,
		})
		e.Instrument(obs.NewRegistry())
		engines[i] = e
		srv := transport.NewServer(e, transport.ServerOptions{})
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		go srv.Serve(lis)
		servers[i] = srv
		backends[i] = cluster.NewRemoteShard(transport.NewClient(lis.Addr().String(), transport.ClientOptions{}))
	}
	c := cluster.NewWithBackends(cluster.Options{
		Replicas:  1,
		ShedLimit: 1 << 20,
		Workers:   throughputClients,
	}, backends)
	c.Instrument(obs.NewRegistry())
	return c, func() {
		c.Close() // closes the transport clients
		for i := range servers {
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			servers[i].Shutdown(ctx)
			cancel()
			engines[i].Close()
		}
	}
}

// BenchmarkMultiProcessCluster reruns the E23 storm shapes against the
// multi-process topology. Reproduce the E25 tables with:
//
//	GOMAXPROCS=4 go test -run '^$' -bench BenchmarkMultiProcessCluster -benchtime 1000x .
func BenchmarkMultiProcessCluster(b *testing.B) {
	hot := []engine.Config{{Dim: 2, Faults: []NodeID{3}}}
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
		b.Run(sc.name+"/cluster-4", func(b *testing.B) {
			c := newBenchCluster(4)
			defer c.Close()
			runClusterThroughput(b, c, sc.configs, sc.pick, func() int64 { return c.Metrics().Sheds })
		})
		b.Run(sc.name+"/remote-4", func(b *testing.B) {
			c, teardown := newRemoteBenchCluster(b, 4)
			defer teardown()
			runClusterThroughput(b, c, sc.configs, sc.pick, func() int64 { return c.Metrics().Sheds })
		})
	}
}
