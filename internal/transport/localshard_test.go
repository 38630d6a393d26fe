package transport_test

import (
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"hypersort/internal/cluster"
	"hypersort/internal/cube"
	"hypersort/internal/engine"
	"hypersort/internal/sortutil"
	"hypersort/internal/transport"
)

// TestServerLocalShardServesDirectInline pins the shard server's
// production fast path: over the local engine shard a shard process
// serves, direct-eligible sorts run inline on the request goroutine —
// every one counted as a direct request, and no simulated machine
// built.
func TestServerLocalShardServesDirectInline(t *testing.T) {
	shard := cluster.NewLocalShard(cluster.Options{PoolSize: 1, Workers: 4, Mode: engine.ModeDirect})
	defer shard.Close()
	srv := transport.NewServer(shard, transport.ServerOptions{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(lis)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	cl := transport.NewClient(lis.Addr().String(), transport.ClientOptions{DialTimeout: time.Second, CallTimeout: 5 * time.Second})
	defer cl.Close()

	const n = 16
	cfg := engine.Config{Dim: 3, Faults: []cube.NodeID{5}}
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			keys := []sortutil.Key{sortutil.Key(i), 9, -3, 4, 0}
			res := cl.Do(context.Background(), engine.Request{Config: cfg, Op: engine.OpSort, Keys: keys})
			switch {
			case res.Err != nil:
				errs <- res.Err
			case !res.Direct:
				errs <- errors.New("sort not served by the direct substrate")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m := shard.Metrics()
	if m.DirectRequests != n {
		t.Fatalf("DirectRequests = %d, want %d", m.DirectRequests, n)
	}
	if m.MachinesBuilt != 0 {
		t.Fatalf("MachinesBuilt=%d, want 0 (inline direct path)", m.MachinesBuilt)
	}
}
