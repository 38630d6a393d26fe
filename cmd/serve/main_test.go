package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hypersort"
	"hypersort/internal/trace"
)

// newTestServer stands up the production handler set over a small
// engine with tracing enabled.
func newTestServer(t *testing.T) (*httptest.Server, *hypersort.Engine) {
	t.Helper()
	ring := trace.NewRing(4096, 1)
	eng := hypersort.NewEngine(hypersort.EngineConfig{PoolSize: 2, BatchWorkers: 2, Trace: ring.Record})
	srv := httptest.NewServer(newMux(eng, ring, true, hypersort.RouteECube))
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})
	return srv, eng
}

// sortBody builds a /v1/sort request body with n shuffled keys.
func sortBody(dim int, faults []int64, n int) string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = strconv.Itoa((i*7 + 3) % n)
	}
	f, _ := json.Marshal(faults)
	return fmt.Sprintf(`{"dim":%d,"faults":%s,"keys":[%s]}`, dim, f, strings.Join(keys, ","))
}

// TestServeSortEndpoint drives a sort through the HTTP surface and
// checks output order plus response hygiene (status, Content-Type).
func TestServeSortEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Post(srv.URL+"/v1/sort", "application/json", strings.NewReader(sortBody(3, []int64{5}, 64)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	var res wireResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Err != "" {
		t.Fatalf("sort failed: %s", res.Err)
	}
	if len(res.Keys) != 64 {
		t.Fatalf("got %d keys, want 64", len(res.Keys))
	}
	for i := 1; i < len(res.Keys); i++ {
		if res.Keys[i] < res.Keys[i-1] {
			t.Fatalf("output not sorted at %d", i)
		}
	}
	if res.Stats.Comparisons == 0 {
		t.Fatal("stats missing from response")
	}
}

// TestServeBatchSkipsRejectedEntries pins /v1/batch's per-entry
// isolation at the engine boundary: entries that fail conversion (an
// unknown op, an unknown fault model) answer their error in place and
// are never dispatched, so the engine counts only the valid entries and
// plans nothing for the rejects.
func TestServeBatchSkipsRejectedEntries(t *testing.T) {
	srv, eng := newTestServer(t)
	body := `{"requests":[
		{"dim":3,"op":"bogus","keys":[3,1,2]},
		{"dim":3,"faults":[5],"keys":[9,2,7,4]},
		{"dim":3,"model":"bogus","keys":[3,1,2]}]}`
	resp, err := http.Post(srv.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var out struct {
		Results []wireResult `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(out.Results))
	}
	if out.Results[0].Err == "" || out.Results[2].Err == "" {
		t.Fatalf("rejected entries answered without errors: %+v", out.Results)
	}
	if got := out.Results[1]; got.Err != "" || len(got.Keys) != 4 || got.Keys[0] != 2 || got.Keys[3] != 9 {
		t.Fatalf("valid entry = %+v, want keys [2 4 7 9]", got)
	}
	if m := eng.Metrics().Engine; m.Requests != 1 || m.PlanMisses != 1 {
		t.Fatalf("engine saw Requests=%d PlanMisses=%d, want 1 and 1 (only the valid entry)", m.Requests, m.PlanMisses)
	}
}

// TestServeResponseHygiene pins the error contract of every endpoint:
// JSON bodies with correct status codes and Content-Type on malformed
// input, wrong methods, and bad query parameters.
func TestServeResponseHygiene(t *testing.T) {
	srv, _ := newTestServer(t)
	cases := []struct {
		name, method, path, body string
		wantStatus               int
	}{
		{"malformed sort body", http.MethodPost, "/v1/sort", `{"dim":`, http.StatusBadRequest},
		{"bad op", http.MethodPost, "/v1/sort", `{"dim":2,"op":"frobnicate","keys":[1]}`, http.StatusBadRequest},
		{"bad model", http.MethodPost, "/v1/sort", `{"dim":2,"model":"cosmic","keys":[1]}`, http.StatusBadRequest},
		{"engine-rejected sort", http.MethodPost, "/v1/sort", `{"dim":99,"keys":[1]}`, http.StatusUnprocessableEntity},
		{"sort via GET", http.MethodGet, "/v1/sort", "", http.StatusMethodNotAllowed},
		{"batch via GET", http.MethodGet, "/v1/batch", "", http.StatusMethodNotAllowed},
		{"metrics via POST", http.MethodPost, "/metrics", "", http.StatusMethodNotAllowed},
		{"v1 metrics via POST", http.MethodPost, "/v1/metrics", "", http.StatusMethodNotAllowed},
		{"trace via POST", http.MethodPost, "/v1/trace", "", http.StatusMethodNotAllowed},
		{"bad trace last", http.MethodGet, "/v1/trace?last=bogus", "", http.StatusBadRequest},
		{"negative trace last", http.MethodGet, "/v1/trace?last=-4", "", http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			req, err := http.NewRequest(c.method, srv.URL+c.path, strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != c.wantStatus {
				t.Fatalf("status %d, want %d", resp.StatusCode, c.wantStatus)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q, want application/json", ct)
			}
			var body map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
				t.Fatalf("error body is not JSON: %v", err)
			}
			if body["error"] == "" || body["error"] == nil {
				t.Fatalf("error body missing 'error' field: %v", body)
			}
		})
	}
}

// TestServePrometheusConformance scrapes GET /metrics after traffic and
// parses the exposition: every line must be a comment or a valid sample,
// every family needs HELP and TYPE, and the engine/machine families the
// traffic must have moved are present with nonzero values.
func TestServePrometheusConformance(t *testing.T) {
	srv, _ := newTestServer(t)
	if _, err := http.Post(srv.URL+"/v1/sort", "application/json", strings.NewReader(sortBody(3, []int64{2, 5}, 64))); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type %q", ct)
	}
	text := readAll(t, resp)
	help := map[string]bool{}
	typed := map[string]bool{}
	values := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			help[strings.Fields(rest)[0]] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(rest)
			if len(f) != 2 {
				t.Fatalf("bad TYPE line %q", line)
			}
			typed[f[0]] = true
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("sample line without value: %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("non-numeric sample in %q: %v", line, err)
		}
		values[line[:i]] = v
	}
	for _, fam := range []string{
		"hypersort_engine_requests_total",
		"hypersort_engine_request_latency_ns",
		"hypersort_machine_runs_total",
		"hypersort_machine_comparisons_total",
		"hypersort_phase_vtime_total",
	} {
		if !help[fam] || !typed[fam] {
			t.Errorf("family %s missing HELP/TYPE", fam)
		}
	}
	if values["hypersort_engine_requests_total"] < 1 {
		t.Error("request counter did not move")
	}
	if values["hypersort_machine_runs_total"] < 1 {
		t.Error("machine run counter did not move")
	}
	if values[`hypersort_phase_vtime_total{phase="step3_local_sort"}`] <= 0 {
		t.Error("phase breakdown did not move")
	}
	if values[`hypersort_engine_request_latency_ns_bucket{le="+Inf"}`] < 1 {
		t.Error("latency histogram empty")
	}
}

// TestServeTraceConformance pulls GET /v1/trace after traffic and
// validates the Chrome trace-event schema Perfetto loads: a traceEvents
// array of metadata ("M") and instant ("i") rows with machine args.
func TestServeTraceConformance(t *testing.T) {
	srv, _ := newTestServer(t)
	if _, err := http.Post(srv.URL+"/v1/sort", "application/json", strings.NewReader(sortBody(3, nil, 64))); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v1/trace?last=100")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Tid  int64          `json:"tid"`
			Ts   int64          `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit == "" {
		t.Error("displayTimeUnit missing")
	}
	var meta, inst int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "i":
			inst++
			switch ev.Name {
			case "send", "recv", "compute":
			default:
				t.Errorf("unexpected event name %q", ev.Name)
			}
			if _, ok := ev.Args["keys"]; !ok {
				t.Errorf("instant event without keys arg: %+v", ev)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if meta == 0 || inst == 0 {
		t.Fatalf("trace lacks metadata (%d) or instant (%d) events", meta, inst)
	}
	if inst > 100 {
		t.Fatalf("last=100 returned %d events", inst)
	}
}

// TestServeMetricsJSON pins /v1/metrics shape: the pre-existing engine
// and memory keys stay, and the registry snapshot rides alongside.
func TestServeMetricsJSON(t *testing.T) {
	srv, _ := newTestServer(t)
	if _, err := http.Post(srv.URL+"/v1/sort", "application/json", strings.NewReader(sortBody(2, nil, 16))); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Engine struct {
			Requests int64
		} `json:"engine"`
		Memory struct {
			HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
		} `json:"memory"`
		Registry map[string]struct {
			Kind string `json:"kind"`
		} `json:"registry"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Engine.Requests < 1 {
		t.Error("engine.Requests missing or zero")
	}
	if body.Memory.HeapAllocBytes == 0 {
		t.Error("memory stats missing")
	}
	if sv, ok := body.Registry["hypersort_engine_requests_total"]; !ok || sv.Kind != "counter" {
		t.Errorf("registry snapshot missing request counter: %v", body.Registry)
	}
}

// TestServeStatusMapping pins the engine-error -> HTTP status contract:
// admission rejection is backpressure (503, retryable), every other
// engine failure is the request's fault (422).
func TestServeStatusMapping(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"ok", nil, http.StatusOK},
		{"admission rejected", hypersort.ErrAdmissionRejected, http.StatusServiceUnavailable},
		{"wrapped admission rejected", fmt.Errorf("lane: %w", hypersort.ErrAdmissionRejected), http.StatusServiceUnavailable},
		{"other engine error", fmt.Errorf("no single-fault structure"), http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		if got := statusFor(c.err); got != c.want {
			t.Errorf("%s: statusFor = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestServeBatchedSortsCoalesce drives concurrent sorts on one
// configuration through the HTTP surface and asserts the dispatcher
// actually fused them — the production path (serve -> engine -> lane ->
// fused session run) exercised end to end.
func TestServeBatchedSortsCoalesce(t *testing.T) {
	ring := trace.NewRing(1024, 1)
	eng := hypersort.NewEngine(hypersort.EngineConfig{PoolSize: 1, BatchWorkers: 16, Trace: ring.Record, MaxLinger: 2 * time.Millisecond})
	srv := httptest.NewServer(newMux(eng, ring, true, hypersort.RouteECube))
	t.Cleanup(func() {
		srv.Close()
		eng.Close()
	})

	const burst = 16
	body := sortBody(3, []int64{5}, 64)
	var wg sync.WaitGroup
	errs := make([]error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(srv.URL+"/v1/sort", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	mtr := eng.Metrics().Engine
	if mtr.FusedRequests <= mtr.FusedBatches {
		t.Fatalf("no coalescing over HTTP: %d fused requests in %d batches", mtr.FusedRequests, mtr.FusedBatches)
	}
}

// readAll drains a response body into a string.
func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestServeChaosInjectRecovers is the acceptance path end to end over
// HTTP: arm a mid-run processor kill through /v1/chaos/inject, drive a
// sort that the casualty strikes, and require a 200 with the fully
// sorted keys — the engine diagnosed, replanned, and redistributed
// in-flight. The recovery instruments must then be visible on /metrics.
func TestServeChaosInjectRecovers(t *testing.T) {
	srv, eng := newTestServer(t)

	inject := `{"dim":4,"kill_node":5,"at":1}`
	resp, err := http.Post(srv.URL+"/v1/chaos/inject", "application/json", strings.NewReader(inject))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inject status %d", resp.StatusCode)
	}

	resp, err = http.Post(srv.URL+"/v1/sort", "application/json", strings.NewReader(sortBody(4, nil, 200)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sort under injection: status %d", resp.StatusCode)
	}
	var res wireResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Err != "" {
		t.Fatalf("sort under injection failed: %s", res.Err)
	}
	if len(res.Keys) != 200 {
		t.Fatalf("got %d keys, want 200", len(res.Keys))
	}
	for i := 1; i < len(res.Keys); i++ {
		if res.Keys[i-1] > res.Keys[i] {
			t.Fatalf("recovered output unsorted at %d", i)
		}
	}
	if m := eng.Metrics().Engine; m.Replans < 1 {
		t.Fatalf("Replans = %d, want >= 1", m.Replans)
	}

	// The recovery-latency histogram must be non-empty on the scrape
	// endpoint.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	body, _ := io.ReadAll(mresp.Body)
	found := false
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "hypersort_engine_recovery_latency_ns_count "); ok {
			n, err := strconv.Atoi(strings.TrimSpace(v))
			if err != nil || n < 1 {
				t.Fatalf("recovery latency count = %q", v)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("hypersort_engine_recovery_latency_ns_count missing from /metrics")
	}

	// Stand the drill down; a fresh sort must run clean.
	resp, err = http.Post(srv.URL+"/v1/chaos/disarm", "application/json", strings.NewReader(`{"dim":4}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("disarm status %d", resp.StatusCode)
	}
}

// TestServeChaosInjectValidation pins the endpoint's error contract:
// malformed casualties answer 400, unservable configurations 422.
func TestServeChaosInjectValidation(t *testing.T) {
	srv, _ := newTestServer(t)
	cases := []struct {
		body   string
		status int
	}{
		{`{"dim":4}`, http.StatusBadRequest},                                     // no casualty
		{`{"dim":4,"kill_node":1,"kill_link":[0,1]}`, http.StatusBadRequest},     // both casualties
		{`{"dim":4,"model":"bogus","kill_node":1}`, http.StatusBadRequest},       // bad enum
		{`{"dim":40,"kill_node":1}`, http.StatusUnprocessableEntity},             // dimension out of range
		{`{"dim":3,"kill_link":[0,3]}`, http.StatusUnprocessableEntity},          // not a hypercube edge
		{`{"dim":3,"faults":[2],"kill_node":2}`, http.StatusUnprocessableEntity}, // victim already faulty
	}
	for i, c := range cases {
		resp, err := http.Post(srv.URL+"/v1/chaos/inject", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("case %d (%s): status %d, want %d", i, c.body, resp.StatusCode, c.status)
		}
	}
}
