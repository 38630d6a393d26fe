package transport

// The shard server: one TCP listener wrapping one request backend
// (in production, the local engine shard cluster.NewLocalShard builds).
// Each connection is a pipelined stream — the read loop decodes frames
// and dispatches requests to their own goroutines, so a slow sort never
// blocks the requests queued behind it on the same connection;
// responses are serialized on a per-connection write lock and may
// interleave in any completion order, matched back to callers by
// correlation ID.

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hypersort/internal/engine"
	"hypersort/internal/machine"
	"hypersort/internal/obs"
)

// Backend is what a shard serves: the engine request surface every
// serving layer shares (cluster.Backend embeds it and adds the health
// and load signals the router consumes). Implementations take their
// inline direct fast path inside Do when they have one; tests
// substitute slower or failing fakes.
type Backend interface {
	Do(ctx context.Context, req engine.Request) engine.Result
	InjectFault(cfg engine.Config, injs ...machine.Injection) error
	DisarmFaults(cfg engine.Config) error
	Metrics() engine.Metrics
}

// ServerOptions configures a shard server.
type ServerOptions struct {
	// QueueWait, when set, is the engine's queue-wait histogram; its
	// p50 rides the feedback trailer of every response so the proxy's
	// Retry-After hints reflect this shard's real backlog.
	QueueWait *obs.Histogram
	// DrainTimeout bounds Shutdown's wait for in-flight requests
	// before connections are force-closed. Default 10s.
	DrainTimeout time.Duration
}

// Server serves the wire protocol for one backend.
type Server struct {
	backend Backend
	opts    ServerOptions

	inflight atomic.Int64

	mu     sync.Mutex
	lis    net.Listener
	conns  map[*serverConn]struct{}
	closed bool

	done chan struct{} // closed when the accept loop exits
}

// NewServer returns a server for backend; Serve starts it.
func NewServer(backend Backend, opts ServerOptions) *Server {
	if opts.DrainTimeout <= 0 {
		opts.DrainTimeout = 10 * time.Second
	}
	s := &Server{
		backend: backend,
		opts:    opts,
		conns:   make(map[*serverConn]struct{}),
		done:    make(chan struct{}),
	}
	return s
}

// Inflight reports the requests currently executing — the same gauge
// every response feeds back to the proxy.
func (s *Server) Inflight() int64 { return s.inflight.Load() }

// feedback snapshots the load trailer for one outgoing response.
func (s *Server) feedback() Feedback {
	fb := Feedback{Inflight: s.inflight.Load()}
	if s.opts.QueueWait != nil {
		fb.QueueWaitNs = s.opts.QueueWait.Quantile(0.5)
	}
	return fb
}

// Serve accepts connections on lis until Shutdown closes it. It always
// returns a non-nil error; after Shutdown the error is net.ErrClosed.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		lis.Close()
		return net.ErrClosed
	}
	s.lis = lis
	s.mu.Unlock()
	defer close(s.done)
	for {
		conn, err := lis.Accept()
		if err != nil {
			return err
		}
		c := &serverConn{srv: s, conn: conn, w: bufio.NewWriterSize(conn, 64<<10)}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		go c.serve()
	}
}

// Shutdown stops accepting, waits for in-flight requests to drain —
// bounded by ctx and by DrainTimeout — then closes every connection.
// Requests still running after the bound are cut off mid-flight; their
// clients see a connection error and re-route.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	lis := s.lis
	s.mu.Unlock()
	if lis != nil {
		lis.Close()
		<-s.done
	}
	if alreadyClosed {
		return nil
	}

	deadline := time.NewTimer(s.opts.DrainTimeout)
	defer deadline.Stop()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	var err error
drain:
	for s.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			err = ctx.Err()
			break drain
		case <-deadline.C:
			err = fmt.Errorf("transport: shutdown drain timed out with %d in flight", s.inflight.Load())
			break drain
		case <-tick.C:
		}
	}

	s.mu.Lock()
	for c := range s.conns {
		c.conn.Close()
	}
	s.conns = nil
	s.mu.Unlock()
	return err
}

// serverConn is one accepted connection: a read loop plus a write lock
// shared by the response goroutines.
type serverConn struct {
	srv  *Server
	conn net.Conn

	wmu sync.Mutex
	w   *bufio.Writer
}

// serve runs the connection's read loop until EOF or error, decoding
// frames and dispatching them. Requests run on their own goroutines;
// cheap control frames (probe, metrics, inject/disarm) are answered
// inline.
func (c *serverConn) serve() {
	defer func() {
		c.conn.Close()
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		c.srv.mu.Unlock()
	}()
	br := bufio.NewReaderSize(c.conn, 64<<10)
	var lenBuf [4]byte
	var body []byte
	for {
		if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n > MaxFrame {
			return
		}
		if cap(body) < int(n) {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			return
		}
		// Requests own their frame (they outlive this iteration), so
		// decode into a fresh one; control frames reuse none of body
		// after dispatch returns.
		f := &Frame{}
		if err := DecodeFrame(f, body); err != nil {
			// A malformed frame means the stream framing itself is
			// suspect; drop the connection rather than guess.
			return
		}
		switch f.Type {
		case TReq:
			c.srv.inflight.Add(1)
			go c.handleRequest(f)
		case TProbe:
			c.send(func(dst []byte) []byte {
				return AppendProbeAck(dst, f.Corr, c.srv.feedback())
			})
		case TInject:
			err := c.srv.backend.InjectFault(f.Cfg, f.Injs...)
			c.send(func(dst []byte) []byte {
				return AppendAck(dst, f.Corr, err, c.srv.feedback())
			})
		case TDisarm:
			err := c.srv.backend.DisarmFaults(f.Cfg)
			c.send(func(dst []byte) []byte {
				return AppendAck(dst, f.Corr, err, c.srv.feedback())
			})
		case TMetrics:
			m := c.srv.backend.Metrics()
			c.send(func(dst []byte) []byte {
				return AppendMetricsAck(dst, f.Corr, m, c.srv.feedback())
			})
		default:
			// A response type arriving at the server is a protocol
			// violation; drop the connection.
			return
		}
	}
}

// handleRequest executes one request and writes its result frame. The
// wire deadline is re-armed on a local context so cancellation
// propagates across the process boundary.
func (c *serverConn) handleRequest(f *Frame) {
	defer c.srv.inflight.Add(-1)
	ctx := context.Background()
	if f.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, time.Unix(0, f.Deadline))
		defer cancel()
	}
	res := c.srv.backend.Do(ctx, f.Req)
	c.send(func(dst []byte) []byte {
		return AppendResult(dst, f.Corr, res, c.srv.feedback())
	})
}

// sendBufs pools response encode buffers across goroutines.
var sendBufs = sync.Pool{New: func() any { b := make([]byte, 0, 4<<10); return &b }}

// send encodes one response under the connection write lock and
// flushes it. Write errors are ignored: the read loop will observe the
// broken connection and tear it down.
func (c *serverConn) send(encode func(dst []byte) []byte) {
	bp := sendBufs.Get().(*[]byte)
	buf := encode((*bp)[:0])
	c.wmu.Lock()
	_, err := c.w.Write(buf)
	if err == nil {
		err = c.w.Flush()
	}
	c.wmu.Unlock()
	*bp = buf[:0]
	sendBufs.Put(bp)
	_ = err
}
