package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"slices"
	"sync"
	"time"
)

// span is one timed interval the benchmark recorded around a call into
// a layer. Spans of one request share ID.
type span struct {
	ID     int64  `json:"id"`
	Parent string `json:"parent,omitempty"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// maxSpansPerLoad caps the HTTP spans one connection keeps per runLoad.
const maxSpansPerLoad = 10000

// tracer keeps the benchmark's spans in memory until the run ends. A
// nil *tracer records nothing: the untraced runs pass nil.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

func (t *tracer) add(spans ...span) {
	t.mu.Lock()
	t.spans = append(t.spans, spans...)
	t.mu.Unlock()
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// newClients returns one HTTP client per closed-loop connection, each
// limited to a single keep-alive connection.
func newClients(n int) []*http.Client {
	cs := make([]*http.Client, n)
	for i := range cs {
		cs[i] = &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
			Timeout:   60 * time.Second,
		}
	}
	return cs
}

func closeClients(cs []*http.Client) {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// phase is the outcome of one closed-loop phase.
type phase struct {
	lat       []time.Duration // round trips of successful requests
	done      []time.Duration // completion offsets of successful requests
	attempted int
	failed    int
	wrong     int // failures whose response was a 200 with a wrong answer
	firstErr  error
	elapsed   time.Duration
	reqBytes  int64
	respBytes int64
}

// runLoad drives the closed loop: each client sends its next request
// only after reading the previous reply in full. The clock runs from
// just before the request is sent until the last response byte is read;
// checking happens after the clock stops. tr, if non-nil, records the
// benchmark's spans for every request.
func runLoad(clients []*http.Client, url string, s spec, reqs []httpReq, dur time.Duration, tr *tracer) phase {
	results := make([]phase, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	for w := range clients {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			results[w] = loadWorker(clients[w], url, s, reqs, w*len(reqs)/len(clients), start, deadline, tr, int64(w))
		}(w)
	}
	wg.Wait()
	var out phase
	for _, r := range results {
		out.add(r)
	}
	out.elapsed = time.Since(start)
	return out
}

// add merges r's samples and counts into p.
func (p *phase) add(r phase) {
	p.lat = append(p.lat, r.lat...)
	p.done = append(p.done, r.done...)
	p.attempted += r.attempted
	p.failed += r.failed
	p.wrong += r.wrong
	p.reqBytes += r.reqBytes
	p.respBytes += r.respBytes
	p.elapsed += r.elapsed
	if p.firstErr == nil {
		p.firstErr = r.firstErr
	}
}

func loadWorker(client *http.Client, url string, s spec, reqs []httpReq, next int, start, deadline time.Time, tr *tracer, worker int64) phase {
	var out phase
	var buf bytes.Buffer
	var spans []span
	for n := int64(0); time.Now().Before(deadline); n++ {
		hr := &reqs[next%len(reqs)]
		next++
		out.attempted++
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(hr.body))
		if err != nil {
			out.fail(err, false)
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		t0 := time.Now()
		resp, err := client.Do(req)
		if err != nil {
			out.fail(err, false)
			continue
		}
		tHdr := time.Now()
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		t1 := time.Now()
		if err != nil {
			out.fail(fmt.Errorf("read response: %w", err), false)
			continue
		}
		out.reqBytes += int64(len(hr.body))
		out.respBytes += int64(buf.Len())
		if err := checkResponse(resp.StatusCode, buf.Bytes(), hr, s.batch > 0); err != nil {
			out.fail(err, resp.StatusCode == http.StatusOK)
		} else {
			out.lat = append(out.lat, t1.Sub(t0))
			out.done = append(out.done, t1.Sub(start))
		}
		if tr != nil {
			id := worker<<40 | n
			t2 := time.Now()
			group := [...]span{
				{ID: id, Layer: "http", Name: "round_trip", Start: tr.ns(t0), End: tr.ns(t1)},
				{ID: id, Parent: "round_trip", Layer: "http", Name: "headers", Start: tr.ns(t0), End: tr.ns(tHdr)},
				{ID: id, Parent: "round_trip", Layer: "http", Name: "body", Start: tr.ns(tHdr), End: tr.ns(t1)},
				{ID: id, Layer: "bench", Name: "check", Start: tr.ns(t1), End: tr.ns(t2)},
			}
			// Every traced request pays for its spans; only the first
			// ones are kept, which bounds memory and the spans file.
			if len(spans) < maxSpansPerLoad {
				spans = append(spans, group[:]...)
			}
		}
	}
	if tr != nil {
		tr.add(spans...)
	}
	return out
}

func (p *phase) fail(err error, wrong bool) {
	p.failed++
	if wrong {
		p.wrong++
	}
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// quantile is the nearest-rank q-quantile of durations, with the number
// of samples strictly beyond it.
func quantile(lat []time.Duration, q float64) (time.Duration, int) {
	sorted := slices.Clone(lat)
	slices.Sort(sorted)
	if len(sorted) == 0 {
		return 0, 0
	}
	i := max(int(math.Ceil(q*float64(len(sorted))))-1, 0)
	return sorted[i], len(sorted) - 1 - i
}
