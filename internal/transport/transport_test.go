package transport

// Integration tests for the pipelined client against a live server:
// correctness over a real socket, many requests in flight at once,
// deadline propagation, and the health machinery (shard death fails
// fast, reprobe resurrects).

import (
	"context"
	"errors"
	"net"
	"sort"
	"sync"
	"testing"
	"time"

	"hypersort/internal/engine"
	"hypersort/internal/machine"
	"hypersort/internal/sortutil"
	"hypersort/internal/xrand"
)

// fakeBackend is a controllable Backend: it sorts in-process (no
// engine), optionally blocking until released, and records calls.
type fakeBackend struct {
	mu       sync.Mutex
	injected int
	disarmed int
	block    chan struct{} // non-nil: Do waits for close or ctx
}

func (b *fakeBackend) Do(ctx context.Context, req engine.Request) engine.Result {
	if b.block != nil {
		select {
		case <-b.block:
		case <-ctx.Done():
			return engine.Result{Err: ctx.Err()}
		}
	}
	keys := append([]sortutil.Key(nil), req.Keys...)
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return engine.Result{Keys: keys, Res: machine.Result{Comparisons: int64(len(keys))}}
}

func (b *fakeBackend) InjectFault(cfg engine.Config, injs ...machine.Injection) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.injected += len(injs)
	return nil
}

func (b *fakeBackend) DisarmFaults(cfg engine.Config) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.disarmed++
	return nil
}

func (b *fakeBackend) Metrics() engine.Metrics {
	b.mu.Lock()
	defer b.mu.Unlock()
	return engine.Metrics{Requests: int64(b.injected)*0 + 42}
}

// startServer serves backend on an ephemeral port; cleanup shuts it
// down. Returns the address and the server.
func startServer(t *testing.T, backend Backend, opts ServerOptions) (string, *Server) {
	t.Helper()
	srv := NewServer(backend, opts)
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
	return lis.Addr().String(), srv
}

func fastClientOptions() ClientOptions {
	return ClientOptions{DialTimeout: time.Second, CallTimeout: 5 * time.Second, ReprobeInterval: 10 * time.Millisecond}
}

func TestClientServerRoundTrip(t *testing.T) {
	addr, _ := startServer(t, &fakeBackend{}, ServerOptions{})
	cl := NewClient(addr, fastClientOptions())
	defer cl.Close()

	res := cl.Do(context.Background(), engine.Request{
		Config: engine.Config{Dim: 3},
		Op:     engine.OpSort,
		Keys:   []sortutil.Key{5, -1, 3, 0},
	})
	if res.Err != nil {
		t.Fatalf("Do: %v", res.Err)
	}
	want := []sortutil.Key{-1, 0, 3, 5}
	for i, k := range want {
		if res.Keys[i] != k {
			t.Fatalf("keys = %v, want %v", res.Keys, want)
		}
	}
	if res.Res.Comparisons != 4 {
		t.Fatalf("stats did not cross the wire: %+v", res.Res)
	}
}

// TestClientPipelining proves many requests ride one client
// concurrently and every response reaches its own caller (correlation,
// not ordering).
func TestClientPipelining(t *testing.T) {
	addr, _ := startServer(t, &fakeBackend{}, ServerOptions{})
	cl := NewClient(addr, fastClientOptions())
	defer cl.Close()

	const calls = 128
	rng := xrand.New(7)
	var wg sync.WaitGroup
	errs := make([]error, calls)
	for i := 0; i < calls; i++ {
		keys := make([]sortutil.Key, 32)
		for j := range keys {
			keys[j] = sortutil.Key(rng.Uint64())
		}
		wg.Add(1)
		go func(i int, keys []sortutil.Key) {
			defer wg.Done()
			res := cl.Do(context.Background(), engine.Request{Config: engine.Config{Dim: 2}, Op: engine.OpSort, Keys: keys})
			if res.Err != nil {
				errs[i] = res.Err
				return
			}
			if !sort.SliceIsSorted(res.Keys, func(a, b int) bool { return res.Keys[a] < res.Keys[b] }) {
				errs[i] = errors.New("unsorted response")
			}
		}(i, keys)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if !cl.Healthy() {
		t.Fatal("client unhealthy after a clean storm")
	}
}

// TestDeadlinePropagation sends a request whose context expires while
// the backend blocks; the shard side must observe the deadline and the
// caller must get a timely error, not hang for CallTimeout.
func TestDeadlinePropagation(t *testing.T) {
	be := &fakeBackend{block: make(chan struct{})}
	defer close(be.block)
	addr, _ := startServer(t, be, ServerOptions{})
	cl := NewClient(addr, fastClientOptions())
	defer cl.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res := cl.Do(ctx, engine.Request{Config: engine.Config{Dim: 2}, Op: engine.OpSort, Keys: []sortutil.Key{1}})
	if res.Err == nil {
		t.Fatal("expected a deadline error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline took %v to surface", elapsed)
	}
}

// TestControlPlane exercises inject/disarm/probe/metrics over the wire.
func TestControlPlane(t *testing.T) {
	be := &fakeBackend{}
	addr, _ := startServer(t, be, ServerOptions{})
	cl := NewClient(addr, fastClientOptions())
	defer cl.Close()

	cfg := engine.Config{Dim: 4}
	if err := cl.InjectFault(cfg, machine.Injection{Kind: machine.KillNode, Node: 3, At: 10}); err != nil {
		t.Fatalf("InjectFault: %v", err)
	}
	if err := cl.DisarmFaults(cfg); err != nil {
		t.Fatalf("DisarmFaults: %v", err)
	}
	if fb, err := cl.Probe(context.Background()); err != nil || fb.Inflight < 0 {
		t.Fatalf("Probe: %v %+v", err, fb)
	}
	if m := cl.Metrics(); m.Requests != 42 {
		t.Fatalf("Metrics.Requests = %d, want 42", m.Requests)
	}
	be.mu.Lock()
	defer be.mu.Unlock()
	if be.injected != 1 || be.disarmed != 1 {
		t.Fatalf("backend saw inject=%d disarm=%d", be.injected, be.disarmed)
	}
}

// TestShardDeathAndReprobe kills the server mid-stream: in-flight and
// subsequent calls fail fast with ErrShardDown, the client flips
// unhealthy, and once a new server takes over the same address the
// reprobe loop flips it back healthy and calls succeed again.
func TestShardDeathAndReprobe(t *testing.T) {
	srv := NewServer(&fakeBackend{}, ServerOptions{})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	go srv.Serve(lis)

	cl := NewClient(addr, fastClientOptions())
	defer cl.Close()
	if res := cl.Do(context.Background(), engine.Request{Config: engine.Config{Dim: 2}, Op: engine.OpSort, Keys: []sortutil.Key{2, 1}}); res.Err != nil {
		t.Fatalf("warm-up call: %v", res.Err)
	}

	// Kill the shard (no drain — the CI smoke leg SIGKILLs too).
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	srv.Shutdown(ctx)
	cancel()

	res := cl.Do(context.Background(), engine.Request{Config: engine.Config{Dim: 2}, Op: engine.OpSort, Keys: []sortutil.Key{2, 1}})
	if !errors.Is(res.Err, ErrShardDown) {
		t.Fatalf("post-kill error = %v, want ErrShardDown", res.Err)
	}
	if cl.Healthy() {
		t.Fatal("client still healthy after shard death")
	}

	// Resurrect on the same address; the reprobe loop must notice.
	lis2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	srv2 := NewServer(&fakeBackend{}, ServerOptions{})
	go srv2.Serve(lis2)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		srv2.Shutdown(ctx)
	}()

	deadline := time.Now().Add(5 * time.Second)
	for !cl.Healthy() {
		if time.Now().After(deadline) {
			t.Fatal("client never re-probed the resurrected shard healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if res := cl.Do(context.Background(), engine.Request{Config: engine.Config{Dim: 2}, Op: engine.OpSort, Keys: []sortutil.Key{2, 1}}); res.Err != nil {
		t.Fatalf("post-resurrection call: %v", res.Err)
	}
}

// TestServerShutdownDrains pins the shard-side half of graceful
// shutdown: Shutdown returns only after in-flight requests completed,
// and the late responses still reach their callers.
func TestServerShutdownDrains(t *testing.T) {
	be := &fakeBackend{block: make(chan struct{})}
	addr, srv := startServer(t, be, ServerOptions{DrainTimeout: 5 * time.Second})
	cl := NewClient(addr, fastClientOptions())
	defer cl.Close()

	resC := make(chan engine.Result, 1)
	go func() {
		resC <- cl.Do(context.Background(), engine.Request{Config: engine.Config{Dim: 2}, Op: engine.OpSort, Keys: []sortutil.Key{9, 1}})
	}()
	// Wait until the request is in flight server-side.
	deadline := time.Now().Add(2 * time.Second)
	for srv.Inflight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("request never arrived")
		}
		time.Sleep(time.Millisecond)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	select {
	case <-done:
		t.Fatal("Shutdown returned while a request was still executing")
	case <-time.After(50 * time.Millisecond):
	}

	close(be.block) // release the request; drain should now complete
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	res := <-resC
	if res.Err != nil {
		t.Fatalf("in-flight request failed across shutdown: %v", res.Err)
	}
	if len(res.Keys) != 2 || res.Keys[0] != 1 {
		t.Fatalf("bad drained result: %+v", res.Keys)
	}
}
