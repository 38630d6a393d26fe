package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// okResponse renders the response a correct server gives to hr, in
// cmd/serve's layout (stats and direct fields around the payload).
func okResponse(t *testing.T, hr httpReq, batch bool) []byte {
	t.Helper()
	var parts []string
	for _, sn := range hr.snippets {
		parts = append(parts, "{"+string(sn)+`,"stats":{"Makespan":7,"Messages":6},"direct":true}`)
	}
	if batch {
		return []byte(`{"results":[` + strings.Join(parts, ",") + "]}\n")
	}
	return []byte(parts[0] + "\n")
}

func TestCheckerAcceptsCorrectAnswers(t *testing.T) {
	for _, s := range specs {
		reqs, err := generate(s, 7)
		if err != nil {
			t.Fatal(err)
		}
		for i := range reqs[:4] {
			if err := checkResponse(200, okResponse(t, reqs[i], s.batch > 0), &reqs[i], s.batch > 0); err != nil {
				t.Errorf("%s body %d: %v", s.name, i, err)
			}
		}
	}
}

// TestCheckerAcceptsOtherLayouts pins the semantic fallback: a correct
// answer the fast path cannot match byte for byte still passes.
func TestCheckerAcceptsOtherLayouts(t *testing.T) {
	s, _ := specByName("batch-mixed-ops")
	reqs, err := generate(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	hr := &reqs[0]
	var results []map[string]any
	for _, sr := range hr.subs {
		r := map[string]any{"stats": map[string]int{"Makespan": 1}}
		if sr.op == "kth" || sr.op == "median" {
			r["value"] = sr.want.Value
		} else {
			r["keys"] = sr.want.Keys
		}
		results = append(results, r)
	}
	body, err := json.MarshalIndent(map[string]any{"results": results}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if payloadsMatch(body, hr.snippets) {
		t.Fatal("indented body matched the fast path; the test does not reach the fallback")
	}
	if err := checkResponse(200, body, hr, true); err != nil {
		t.Fatalf("correct indented response rejected: %v", err)
	}
}

func TestCheckerCountsCorruptedResponse(t *testing.T) {
	for _, s := range specs {
		reqs, err := generate(s, 11)
		if err != nil {
			t.Fatal(err)
		}
		hr := &reqs[1]
		good := okResponse(t, *hr, s.batch > 0)
		// Swap two adjacent digits inside the last payload field.
		last := hr.snippets[len(hr.snippets)-1]
		at := bytes.LastIndex(good, last) + len(last) - 2
		bad := bytes.Clone(good)
		for bad[at] == bad[at-1] || bad[at] < '0' || bad[at] > '9' || bad[at-1] < '0' || bad[at-1] > '9' {
			at--
		}
		bad[at], bad[at-1] = bad[at-1], bad[at]
		if err := checkResponse(200, bad, hr, s.batch > 0); err == nil {
			t.Errorf("%s: corrupted response accepted", s.name)
		}
		// Two keys merged into one are caught too.
		if s.batch == 0 {
			short := bytes.Replace(good, []byte(","), nil, 1)
			if err := checkResponse(200, short, hr, false); err == nil {
				t.Errorf("%s: response with a merged key accepted", s.name)
			}
		}
		if err := checkResponse(200, []byte(`{"error":"engine: boom"}`), hr, s.batch > 0); err == nil {
			t.Errorf("%s: error body accepted", s.name)
		}
	}
}

// TestLoadCountsFailures drives the closed loop against a stub server
// that answers 503 to one request in three and a corrupted answer to
// another, and checks both are counted as failures and left out of the
// latency samples.
func TestLoadCountsFailures(t *testing.T) {
	s, _ := specByName("small-sorts")
	reqs, err := generate(s, 5)
	if err != nil {
		t.Fatal(err)
	}
	srv := newStubServer(t)
	defer srv.Close()
	clients := newClients(1)
	defer closeClients(clients)
	ph := runLoad(clients, srv.URL+s.path, s, reqs[:3], 300*time.Millisecond, nil)
	if ph.attempted < 3 {
		t.Fatalf("only %d requests attempted", ph.attempted)
	}
	if ph.failed == 0 || ph.wrong == 0 || ph.failed == ph.wrong {
		t.Fatalf("failed=%d wrong=%d: want both 503s and wrong answers counted", ph.failed, ph.wrong)
	}
	if ph.failed+len(ph.lat) != ph.attempted {
		t.Fatalf("failed %d + ok %d != attempted %d", ph.failed, len(ph.lat), ph.attempted)
	}
}

func TestSeedPinsBodies(t *testing.T) {
	for _, s := range specs {
		a, err := generate(s, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(s, 42)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(s, 43)
		if err != nil {
			t.Fatal(err)
		}
		differ := false
		for i := range a {
			if !bytes.Equal(a[i].body, b[i].body) {
				t.Fatalf("%s: body %d differs between two runs of seed 42", s.name, i)
			}
			differ = differ || !bytes.Equal(a[i].body, c[i].body)
		}
		if !differ {
			t.Errorf("%s: seeds 42 and 43 gave identical bodies", s.name)
		}
	}
}

// TestWorkloadShapes pins the shapes README.md documents: key counts,
// envelope size, and that every (config, op) class appears.
func TestWorkloadShapes(t *testing.T) {
	for _, s := range specs {
		reqs, err := generate(s, 1)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int]bool{}
		for _, hr := range reqs {
			want := max(s.batch, 1)
			if len(hr.subs) != want {
				t.Fatalf("%s: %d requests per body, want %d", s.name, len(hr.subs), want)
			}
			for _, sr := range hr.subs {
				if len(sr.keys) != s.keys {
					t.Fatalf("%s: %d keys, want %d", s.name, len(sr.keys), s.keys)
				}
				seen[sr.class] = true
			}
		}
		if len(seen) != s.numClasses() {
			t.Errorf("%s: %d of %d classes present", s.name, len(seen), s.numClasses())
		}
	}
}

func TestQuantile(t *testing.T) {
	lat := make([]time.Duration, 1000)
	for i := range lat {
		lat[i] = time.Duration(1000-i) * time.Microsecond
	}
	if q, beyond := quantile(lat, 0.99); q != 990*time.Microsecond || beyond != 10 {
		t.Fatalf("p99 = %v with %d beyond, want 990µs with 10", q, beyond)
	}
	if q, _ := quantile(lat, 0.5); q != 500*time.Microsecond {
		t.Fatalf("p50 = %v, want 500µs", q)
	}
}

func TestHistDeltaMedian(t *testing.T) {
	a := histSnap{Count: 2, Buckets: map[string]int64{"1024": 2}}
	b := histSnap{Count: 7, Buckets: map[string]int64{"1024": 3, "4096": 3, "65536": 1}}
	// Delta: 1 in (512, 1024], 3 in (2048, 4096], 1 in (32768, 65536].
	// The median (rank 2.5 of 5) lies half way through the middle bucket.
	if got := histDeltaMedian(a, b); got != 3072 {
		t.Fatalf("median %v, want 3072", got)
	}
	if got := histDeltaMedian(b, b); got != 0 {
		t.Fatalf("empty delta gave %v, want 0", got)
	}
}

// newStubServer answers each /v1/sort the way cmd/serve would, except
// that every third request gets a 503 and every third a corrupted
// answer (the first key duplicated over the second).
func newStubServer(t *testing.T) *httptest.Server {
	t.Helper()
	var n atomic.Int64
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		var wr wireReq
		if err := json.Unmarshal(body, &wr); err != nil {
			t.Error(err)
			return
		}
		want := expected("sort", wr.Keys, 0)
		switch n.Add(1) % 3 {
		case 0:
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			_, _ = w.Write([]byte(`{"error":"engine: admission queue full"}`))
			return
		case 1:
			want.Keys[1] = want.Keys[0]
		}
		_ = json.NewEncoder(w).Encode(map[string]any{"keys": want.Keys, "stats": map[string]int{"Makespan": 1}})
	}))
}
