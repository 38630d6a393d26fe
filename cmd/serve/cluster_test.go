package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"hypersort"
	"hypersort/internal/obs"
)

// TestRetryAfterSeconds pins the 503 backoff-hint derivation: ceiling
// of the observed p50 queue wait in whole seconds, floored at 1 (an
// empty histogram or sub-second waits must not invite a hot retry
// loop) and capped at 30 (the log-scale buckets overshoot by up to 2x,
// and a transient spike must not read as an outage).
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		name    string
		observe []int64
		want    int
	}{
		{"empty histogram", nil, 1},
		{"sub-second waits", []int64{1000, 1 << 20}, 1},
		// One observation at 2^31 ns ~ 2.15s: the p50 bucket bound is
		// 2^31, which ceils to 3 whole seconds.
		{"two-second waits", []int64{1 << 31}, 3},
		// 2^36 ns ~ 69s: capped.
		{"pathological waits", []int64{1 << 36}, 30},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := &obs.Histogram{}
			for _, v := range c.observe {
				h.Observe(v)
			}
			if got := retryAfterSeconds(h, 0); got != c.want {
				t.Fatalf("retryAfterSeconds = %d, want %d", got, c.want)
			}
		})
	}
}

// TestServeRetryAfterOnBackpressure drives a real admission rejection
// through the HTTP surface: a single-machine engine with a one-deep
// admission queue is flooded with concurrent slow sorts, at least one
// must answer 503, and its Retry-After header must be the computed
// whole-second hint (an integer in [1, 30]) rather than free text.
func TestServeRetryAfterOnBackpressure(t *testing.T) {
	eng := hypersort.NewEngine(hypersort.EngineConfig{
		PoolSize:       1,
		BatchWorkers:   1,
		MaxBatch:       1,
		AdmissionQueue: 1,
	})
	srv := httptest.NewServer(newMux(eng, nil, false, hypersort.RouteECube))
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})

	body := sortBody(6, nil, 2000)
	var (
		mu         sync.Mutex
		retryAfter string
		saw503     bool
	)
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/sort", "application/json", strings.NewReader(body))
			if err != nil {
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode == http.StatusServiceUnavailable {
				mu.Lock()
				saw503 = true
				if retryAfter == "" {
					retryAfter = resp.Header.Get("Retry-After")
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if !saw503 {
		t.Skip("flood did not trigger admission rejection on this host; contract covered by TestRetryAfterSeconds")
	}
	n, err := strconv.Atoi(retryAfter)
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", retryAfter, err)
	}
	if n < 1 || n > 30 {
		t.Fatalf("Retry-After = %d, want within [1, 30]", n)
	}
}

// newClusterTestServer stands up the production handler set over a
// sharded engine.
func newClusterTestServer(t *testing.T, chaos bool) (*httptest.Server, *hypersort.Engine) {
	t.Helper()
	cl := hypersort.NewEngine(hypersort.EngineConfig{
		Shards:       3,
		Replicas:     1,
		PoolSize:     1,
		BatchWorkers: 2,
	})
	srv := httptest.NewServer(newMux(cl, nil, chaos, hypersort.RouteECube))
	t.Cleanup(func() {
		srv.Close()
		cl.Close()
	})
	return srv, cl
}

// TestServeClusterBackend checks the handler set is topology-blind: a
// sharded engine behind the same mux serves sorts correctly and
// /v1/metrics reports both the shard-summed engine view (under the key
// dashboards already read) and the router's cluster section.
func TestServeClusterBackend(t *testing.T) {
	srv, cl := newClusterTestServer(t, false)
	resp, err := http.Post(srv.URL+"/v1/sort", "application/json", strings.NewReader(sortBody(4, []int64{3}, 128)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var res wireResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Keys); i++ {
		if res.Keys[i] < res.Keys[i-1] {
			t.Fatalf("output not sorted at %d", i)
		}
	}
	if m := cl.Metrics(); m.Requests != 1 {
		t.Fatalf("cluster served %d requests, want 1", m.Requests)
	}

	mresp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var payload struct {
		Engine  *json.RawMessage `json:"engine"`
		Cluster *struct {
			Requests int64 `json:"Requests"`
			Shards   []any `json:"Shards"`
		} `json:"cluster"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&payload); err != nil {
		t.Fatal(err)
	}
	if payload.Engine == nil {
		t.Fatal("/v1/metrics lost the engine section on a sharded engine")
	}
	if payload.Cluster == nil {
		t.Fatal("/v1/metrics missing the cluster section on a sharded engine")
	}
	if payload.Cluster.Requests != 1 {
		t.Fatalf("cluster section reports %d requests, want 1", payload.Cluster.Requests)
	}
	if len(payload.Cluster.Shards) != 3 {
		t.Fatalf("cluster section reports %d shards, want 3", len(payload.Cluster.Shards))
	}
}

// TestServeClusterChaosAllShards checks `serve -chaos` against a
// sharded engine: inject arms every shard (the router may serve the
// configuration from home or any replica), a struck sort still answers
// 200 with sorted keys, and disarm stands the whole fleet down.
func TestServeClusterChaosAllShards(t *testing.T) {
	srv, cl := newClusterTestServer(t, true)
	body := sortBody(4, nil, 300)

	// Healthy run to size the kill time.
	resp, err := http.Post(srv.URL+"/v1/sort", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var clean wireResult
	if err := json.NewDecoder(resp.Body).Decode(&clean); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if clean.Err != "" {
		t.Fatalf("healthy run failed: %s", clean.Err)
	}
	mid := clean.Stats.Makespan / 2
	if mid <= 0 {
		t.Fatalf("healthy makespan %d too small to bisect", clean.Stats.Makespan)
	}

	inj := fmt.Sprintf(`{"dim":4,"kill_node":5,"at":%d}`, mid)
	iresp, err := http.Post(srv.URL+"/v1/chaos/inject", "application/json", strings.NewReader(inj))
	if err != nil {
		t.Fatal(err)
	}
	iresp.Body.Close()
	if iresp.StatusCode != http.StatusOK {
		t.Fatalf("inject status %d", iresp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/v1/sort", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var struck wireResult
	if err := json.NewDecoder(resp.Body).Decode(&struck); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if struck.Err != "" {
		t.Fatalf("struck sort did not recover: %s", struck.Err)
	}
	for i := 1; i < len(struck.Keys); i++ {
		if struck.Keys[i] < struck.Keys[i-1] {
			t.Fatalf("recovered output not sorted at %d", i)
		}
	}
	if m := cl.Metrics(); m.Engine.Replans < 1 {
		t.Fatalf("cluster replans = %d, want >= 1", m.Engine.Replans)
	}

	dresp, err := http.Post(srv.URL+"/v1/chaos/disarm", "application/json", strings.NewReader(`{"dim":4}`))
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("disarm status %d", dresp.StatusCode)
	}
}
