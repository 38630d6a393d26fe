package main

// Regression tests for the graceful-shutdown ordering, the header-read
// bound and the proxy-mode Retry-After hint.

import (
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"hypersort/internal/obs"
)

// TestRetryAfterConsultsProxyHint pins the proxy-mode half of the
// Retry-After contract: when the engine reports a remote queue wait
// worse than the local histogram's p50, the hint follows the remote
// figure (ceiled to whole seconds); when the remote figure is smaller,
// the local histogram still wins.
func TestRetryAfterConsultsProxyHint(t *testing.T) {
	empty := &obs.Histogram{}
	if got := retryAfterSeconds(empty, int64(2500*time.Millisecond)); got != 3 {
		t.Fatalf("remote hint 2.5s over empty histogram: Retry-After = %d, want 3", got)
	}
	if got := retryAfterSeconds(empty, 0); got != 1 {
		t.Fatalf("zero hint must keep the 1s floor, got %d", got)
	}
	local := &obs.Histogram{}
	local.Observe(int64(1 << 36)) // ~69s local p50, capped at 30
	if got := retryAfterSeconds(local, int64(time.Second)); got != 30 {
		t.Fatalf("worse local histogram must win over a mild hint, got %d", got)
	}
}

// TestServeUntilDrainsBeforeBackendClose pins the shutdown ordering
// serveUntil exists to guarantee: on signal, in-flight HTTP requests
// run to completion BEFORE the backend closes. The old shape —
// closeBackend right after ListenAndServe returned — closed the engine
// while handlers were still executing, because http.Server's Serve
// returns the moment Shutdown begins, not when it finishes.
func TestServeUntilDrainsBeforeBackendClose(t *testing.T) {
	var (
		inHandler   atomic.Bool
		handlerDone atomic.Bool
		closedEarly atomic.Bool
		closed      atomic.Bool
	)
	release := make(chan struct{})
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inHandler.Store(true)
		<-release
		handlerDone.Store(true)
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "drained")
	})}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	serveErr := make(chan error, 1)
	go func() {
		serveErr <- serveUntil(srv, lis, sig, 5*time.Second, func() {
			closed.Store(true)
			if !handlerDone.Load() {
				closedEarly.Store(true)
			}
		})
	}()

	// One request in flight, held open inside the handler.
	respC := make(chan *http.Response, 1)
	reqErr := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + lis.Addr().String() + "/")
		if err != nil {
			reqErr <- err
			return
		}
		respC <- resp
	}()
	deadline := time.Now().Add(2 * time.Second)
	for !inHandler.Load() {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the handler")
		}
		time.Sleep(time.Millisecond)
	}

	sig <- os.Interrupt

	// The server must now be draining: serveUntil still running, backend
	// still open, handler still blocked.
	time.Sleep(50 * time.Millisecond)
	if closed.Load() {
		t.Fatal("backend closed while a handler was still executing")
	}
	select {
	case err := <-serveErr:
		t.Fatalf("serveUntil returned mid-drain: %v", err)
	default:
	}

	close(release)
	if err := <-serveErr; err != nil {
		t.Fatalf("serveUntil: %v", err)
	}
	if !closed.Load() {
		t.Fatal("backend never closed")
	}
	if closedEarly.Load() {
		t.Fatal("backend closed before the in-flight handler finished")
	}
	select {
	case err := <-reqErr:
		t.Fatalf("in-flight request failed across shutdown: %v", err)
	case resp := <-respC:
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(body) != "drained" {
			t.Fatalf("in-flight response = %d %q, want 200 \"drained\"", resp.StatusCode, body)
		}
	}
}

// TestServeReadHeaderTimeout pins the header-read bound: the server
// newHTTPServer builds carries a ReadHeaderTimeout, and a raw TCP client
// that sends a partial request header and then stalls is disconnected
// within it — leaving no goroutine behind once the server closes.
func TestServeReadHeaderTimeout(t *testing.T) {
	before := runtime.NumGoroutine()
	srv := newHTTPServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want %v", srv.ReadHeaderTimeout, readHeaderTimeout)
	}
	const bound = 200 * time.Millisecond
	srv.ReadHeaderTimeout = bound
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()

	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /v1/sort HTTP/1.1\r\nHost: stalled\r\n"); err != nil {
		t.Fatal(err)
	}
	// The read deadline only stops a server that never hangs up from
	// hanging the test; the server must close the connection first.
	conn.SetReadDeadline(time.Now().Add(10 * bound))
	_, err = io.Copy(io.Discard, conn)
	elapsed := time.Since(start)
	conn.Close()
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("server kept a stalled header open for %v (bound %v)", elapsed, bound)
	}
	if elapsed > bound+time.Second {
		t.Fatalf("stalled client disconnected after %v, want within %v", elapsed, bound)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before, %d after the stalled connection", before, after)
	}
}
