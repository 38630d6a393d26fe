// Package transport is the multi-process cluster's wire layer: a
// length-prefixed binary protocol for sort/top-k requests and results,
// a pipelined per-shard client, and a shard server that wraps one
// request engine behind a TCP listener.
//
// The protocol exists so PR 8's in-process consistent-hash router can
// dispatch to shard PROCESSES instead of in-process engines with
// nothing else changing: the ring, the spill/shed thresholds, and the
// facade stay byte-identical, and only the shard boundary moves from a
// method call to a socket. Three properties drive the design:
//
//   - Cheap frames. Every header field is a uvarint and the key payload
//     is raw little-endian 8-byte keys framed zero-copy on the encode
//     side (the frame references the request's key slice directly; no
//     intermediate buffer) and decoded with one aligned copy into a
//     caller-owned slice. Encode and decode of a 4096-key request stay
//     allocation-free in steady state — the proxy overhead gate in
//     BENCH.json pins that.
//
//   - Pipelining. Many requests are in flight per connection at once,
//     matched to callers by correlation ID, so one shard connection
//     sustains a storm without head-of-line request/response lockstep.
//     Responses may return in any order (shards serve concurrently).
//
//   - Load feedback. Every response — results, probe acks, everything —
//     carries the shard's current in-flight gauge and its observed p50
//     queue wait, so the proxy's spill/shed decisions and Retry-After
//     hints run against live shard load, not stale local guesses.
//
// Frame layout (all multi-byte integers little-endian or uvarint):
//
//	frame  := len(uint32 LE) body          len ≤ MaxFrame
//	body   := version(1) type(1) corr(uvarint) payload
//
// The version byte leads every frame so a mixed-version fleet fails
// loudly at the first frame rather than mis-parsing payloads. Payloads
// per type are documented on the Append* encoders below. PerNode clocks
// are not carried: remote results report aggregate counters only.
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"unsafe"

	"hypersort/internal/bitonic"
	"hypersort/internal/cube"
	"hypersort/internal/engine"
	"hypersort/internal/machine"
	"hypersort/internal/sortutil"
)

// Version is the protocol version this package speaks. A frame with any
// other leading byte is rejected before its payload is touched.
const Version = 3

// MaxFrame bounds one frame's body length: large enough for tens of
// millions of keys, small enough that a corrupt or hostile length
// prefix cannot drive an allocation to OOM.
const MaxFrame = 1 << 28

// Frame types. Requests flow proxy→shard, their matching responses
// shard→proxy; every response type carries load Feedback.
const (
	// TReq is one sort/selection request; answered by TRes.
	TReq byte = 1 + iota
	// TRes is one request's result.
	TRes
	// TProbe is a health probe; answered by TProbeAck. The reprober
	// uses it to decide a dead shard came back.
	TProbe
	// TProbeAck answers TProbe with load feedback only.
	TProbeAck
	// TInject arms chaos injections on the shard; answered by TAck.
	TInject
	// TDisarm clears a configuration's injections; answered by TAck.
	TDisarm
	// TAck answers TInject/TDisarm: success or an encoded error.
	TAck
	// TMetrics requests the shard engine's counters; answered by
	// TMetricsAck.
	TMetrics
	// TMetricsAck carries the shard engine's Metrics snapshot.
	TMetricsAck
)

// Error kinds carried in result/ack frames so errors.Is keeps working
// across the process boundary: the proxy must map a shard's admission
// rejection to the same 503 contract as a local one.
const (
	errKindGeneric byte = iota
	errKindAdmission
	errKindUnrecoverable
)

// ErrBadFrame is wrapped by every decode failure: version mismatch,
// unknown type, truncated payload, or a field that fails validation.
var ErrBadFrame = errors.New("transport: malformed frame")

// Feedback is the shard-load report piggybacked on every response: the
// shard's requests currently in flight (after this one completed) and
// its observed median queue wait in nanoseconds. The proxy feeds both
// into spill/shed routing and Retry-After hints.
type Feedback struct {
	Inflight    int64
	QueueWaitNs int64
}

// Frame is one decoded frame. Which fields are meaningful depends on
// Type: Req/Deadline for TReq; Res for TRes; Cfg and Injs for TInject
// (Cfg alone for TDisarm); Err for TAck; Metrics for TMetricsAck; and
// Feedback for every response type.
type Frame struct {
	Type     byte
	Corr     uint64
	Req      engine.Request
	Deadline int64 // unix nanoseconds; 0 = none
	Res      engine.Result
	Cfg      engine.Config
	Injs     []machine.Injection
	Err      error
	Metrics  engine.Metrics
	Feedback Feedback
}

// hostLittleEndian reports whether the host stores integers little-
// endian — the fast path for the raw key payload. Big-endian hosts take
// a per-key conversion loop and interoperate bit-exactly.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// keyBytes reinterprets a key slice as its backing bytes without
// copying. Converting *Key to *byte never misaligns (byte alignment is
// 1), so this is safe under checkptr in both directions used here:
// encode appends the view, decode copies INTO the view of an aligned
// destination slice.
func keyBytes(keys []sortutil.Key) []byte {
	if len(keys) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&keys[0])), len(keys)*8)
}

// beginFrame reserves the 4-byte length prefix and appends the body
// header; endFrame patches the prefix once the body is complete.
func beginFrame(dst []byte, typ byte, corr uint64) []byte {
	dst = append(dst, 0, 0, 0, 0, Version, typ)
	return binary.AppendUvarint(dst, corr)
}

// endFrame patches the length prefix reserved by beginFrame at offset
// start.
func endFrame(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// appendKeys appends the key payload: uvarint count, then count raw
// little-endian 8-byte keys — zero-copy from the caller's slice on
// little-endian hosts.
func appendKeys(dst []byte, keys []sortutil.Key) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	if hostLittleEndian {
		return append(dst, keyBytes(keys)...)
	}
	for _, k := range keys {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(k))
	}
	return dst
}

// appendConfig appends one engine configuration: dim, model, protocol,
// routing, a flags byte (bit 0 = AccountDistribution), the three cost
// constants, then the fault and link-fault lists.
func appendConfig(dst []byte, cfg engine.Config) []byte {
	dst = binary.AppendUvarint(dst, uint64(cfg.Dim))
	var flags byte
	if cfg.AccountDistribution {
		flags |= 1
	}
	dst = append(dst, byte(cfg.Model), byte(cfg.Protocol), byte(cfg.Routing), flags)
	dst = binary.AppendUvarint(dst, uint64(cfg.Cost.Compare))
	dst = binary.AppendUvarint(dst, uint64(cfg.Cost.Elem))
	dst = binary.AppendUvarint(dst, uint64(cfg.Cost.Startup))
	dst = binary.AppendUvarint(dst, uint64(len(cfg.Faults)))
	for _, f := range cfg.Faults {
		dst = binary.AppendUvarint(dst, uint64(f))
	}
	dst = binary.AppendUvarint(dst, uint64(len(cfg.LinkFaults)))
	for _, l := range cfg.LinkFaults {
		dst = binary.AppendUvarint(dst, uint64(l[0]))
		dst = binary.AppendUvarint(dst, uint64(l[1]))
	}
	return dst
}

// appendFeedback appends the load-feedback trailer every response
// carries.
func appendFeedback(dst []byte, fb Feedback) []byte {
	dst = binary.AppendUvarint(dst, uint64(max64(fb.Inflight, 0)))
	return binary.AppendUvarint(dst, uint64(max64(fb.QueueWaitNs, 0)))
}

// appendError appends an error as kind byte plus message, preserving
// the sentinel identities the HTTP layer switches on.
func appendError(dst []byte, err error) []byte {
	kind := errKindGeneric
	switch {
	case errors.Is(err, engine.ErrAdmissionRejected):
		kind = errKindAdmission
	case errors.Is(err, engine.ErrUnrecoverable):
		kind = errKindUnrecoverable
	}
	dst = append(dst, kind)
	msg := err.Error()
	dst = binary.AppendUvarint(dst, uint64(len(msg)))
	return append(dst, msg...)
}

// AppendRequest appends one request frame to dst and returns the
// extended slice. deadline is the caller's context deadline in unix
// nanoseconds (0 = none); the shard re-arms it on its own context, so
// cancellation survives the process boundary. Payload:
//
//	op(1) k(uvarint) deadline(uvarint) config keys
func AppendRequest(dst []byte, corr uint64, req engine.Request, deadline int64) []byte {
	start := len(dst)
	dst = beginFrame(dst, TReq, corr)
	dst = append(dst, byte(req.Op))
	dst = binary.AppendUvarint(dst, uint64(req.K))
	dst = binary.AppendUvarint(dst, uint64(max64(deadline, 0)))
	dst = appendConfig(dst, req.Config)
	dst = appendKeys(dst, req.Keys)
	return endFrame(dst, start)
}

// AppendResult appends one result frame. Payload:
//
//	status(1) [errkind(1) errlen(uvarint) errmsg]
//	direct(1) value(zigzag varint)
//	stats(9 uvarints) feedback keys
func AppendResult(dst []byte, corr uint64, res engine.Result, fb Feedback) []byte {
	start := len(dst)
	dst = beginFrame(dst, TRes, corr)
	if res.Err != nil {
		dst = append(dst, 1)
		dst = appendError(dst, res.Err)
		dst = appendFeedback(dst, fb)
		return endFrame(dst, start)
	}
	dst = append(dst, 0)
	var direct byte
	if res.Direct {
		direct = 1
	}
	dst = append(dst, direct)
	dst = binary.AppendVarint(dst, int64(res.Value))
	r := res.Res
	for _, v := range [...]int64{int64(r.Makespan), r.Messages, r.KeysSent, r.KeyHops,
		r.Comparisons, r.RecvWaits, int64(r.LinkWait), r.MaxLinkOccupancy, r.StripedSends} {
		dst = binary.AppendUvarint(dst, uint64(max64(v, 0)))
	}
	dst = appendFeedback(dst, fb)
	dst = appendKeys(dst, res.Keys)
	return endFrame(dst, start)
}

// AppendProbe appends a health-probe frame (empty payload).
func AppendProbe(dst []byte, corr uint64) []byte {
	start := len(dst)
	dst = beginFrame(dst, TProbe, corr)
	return endFrame(dst, start)
}

// AppendProbeAck appends a probe acknowledgement: feedback only.
func AppendProbeAck(dst []byte, corr uint64, fb Feedback) []byte {
	start := len(dst)
	dst = beginFrame(dst, TProbeAck, corr)
	dst = appendFeedback(dst, fb)
	return endFrame(dst, start)
}

// AppendInject appends a chaos-arm frame: the target configuration and
// the scheduled casualties (kind, node, link endpoints, trigger time,
// send-count trigger per injection).
func AppendInject(dst []byte, corr uint64, cfg engine.Config, injs []machine.Injection) []byte {
	start := len(dst)
	dst = beginFrame(dst, TInject, corr)
	dst = appendConfig(dst, cfg)
	dst = binary.AppendUvarint(dst, uint64(len(injs)))
	for _, inj := range injs {
		dst = append(dst, byte(inj.Kind))
		dst = binary.AppendUvarint(dst, uint64(inj.Node))
		dst = binary.AppendUvarint(dst, uint64(inj.Link[0]))
		dst = binary.AppendUvarint(dst, uint64(inj.Link[1]))
		dst = binary.AppendUvarint(dst, uint64(max64(int64(inj.At), 0)))
		dst = binary.AppendUvarint(dst, uint64(max64(inj.AfterMessages, 0)))
	}
	return endFrame(dst, start)
}

// AppendDisarm appends a chaos-disarm frame: the target configuration.
func AppendDisarm(dst []byte, corr uint64, cfg engine.Config) []byte {
	start := len(dst)
	dst = beginFrame(dst, TDisarm, corr)
	dst = appendConfig(dst, cfg)
	return endFrame(dst, start)
}

// AppendAck appends an inject/disarm acknowledgement: status byte, the
// encoded error when status is 1, then feedback.
func AppendAck(dst []byte, corr uint64, err error, fb Feedback) []byte {
	start := len(dst)
	dst = beginFrame(dst, TAck, corr)
	if err != nil {
		dst = append(dst, 1)
		dst = appendError(dst, err)
	} else {
		dst = append(dst, 0)
	}
	dst = appendFeedback(dst, fb)
	return endFrame(dst, start)
}

// AppendMetricsReq appends a metrics-snapshot request (empty payload).
func AppendMetricsReq(dst []byte, corr uint64) []byte {
	start := len(dst)
	dst = beginFrame(dst, TMetrics, corr)
	return endFrame(dst, start)
}

// AppendMetricsAck appends a metrics snapshot: the engine's 12 lifetime
// counters as uvarints, then feedback.
func AppendMetricsAck(dst []byte, corr uint64, m engine.Metrics, fb Feedback) []byte {
	start := len(dst)
	dst = beginFrame(dst, TMetricsAck, corr)
	for _, v := range metricsFields(&m) {
		dst = binary.AppendUvarint(dst, uint64(max64(*v, 0)))
	}
	dst = appendFeedback(dst, fb)
	return endFrame(dst, start)
}

// metricsFields fixes the wire order of the engine counter set: append
// new counters at the END or bump Version.
func metricsFields(m *engine.Metrics) [12]*int64 {
	return [12]*int64{
		&m.Requests, &m.PlanHits, &m.PlanMisses, &m.MachinesBuilt, &m.MachinesCloned,
		&m.AdmissionRejected, &m.Cancelled,
		&m.Replans, &m.Unrecoverable, &m.DirectRequests,
		&m.OracleRuns, &m.ParityBreaks,
	}
}

// wireError is an error reconstructed from the wire: the shard-side
// message verbatim, unwrapping to the sentinel its kind byte named so
// errors.Is works across the process boundary.
type wireError struct {
	msg  string
	base error
}

// Error implements error.
func (e *wireError) Error() string { return e.msg }

// Unwrap exposes the sentinel identity (nil for generic errors).
func (e *wireError) Unwrap() error { return e.base }

// reader is a bounds-checked cursor over one frame body. Every read
// reports failure by setting bad; the decoder checks once per frame, so
// hostile input cannot panic or over-read.
type reader struct {
	b   []byte
	off int
	bad bool
}

func (r *reader) byte() byte {
	if r.off >= len(r.b) {
		r.bad = true
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

// uvarintLen is the canonical encoded length of v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b[r.off:])
	// Reject over-long ("non-minimal") encodings: the codec has exactly
	// one byte sequence per value, which is what lets the fuzz harness
	// assert decode-then-re-encode byte identity — and denies hostile
	// peers an aliasing channel.
	if n <= 0 || n != uvarintLen(v) {
		r.bad = true
		return 0
	}
	r.off += n
	return v
}

func (r *reader) varint() int64 {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 || n != uvarintLen(uint64(v)<<1^uint64(v>>63)) {
		r.bad = true
		return 0
	}
	r.off += n
	return v
}

// i64 reads a uvarint that must fit a non-negative int64 (counters,
// timestamps): values with the top bit set would change sign on decode
// and clamp to zero on re-encode, so they are rejected instead.
func (r *reader) i64() int64 {
	v := r.uvarint()
	if v > 1<<63-1 {
		r.bad = true
		return 0
	}
	return int64(v)
}

// node reads a uvarint that must fit a cube.NodeID (uint32).
func (r *reader) node() cube.NodeID {
	v := r.uvarint()
	if v > 1<<32-1 {
		r.bad = true
		return 0
	}
	return cube.NodeID(v)
}

// boolByte reads a byte that must be exactly 0 or 1 — status and
// boolean fields, kept canonical for the same reason as varints.
func (r *reader) boolByte() bool {
	c := r.byte()
	if c > 1 {
		r.bad = true
	}
	return c == 1
}

func (r *reader) bytes(n int) []byte {
	if n < 0 || r.off+n > len(r.b) || r.off+n < r.off {
		r.bad = true
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

// keys decodes a key payload into dst (grown as needed). The count is
// validated against the remaining bytes BEFORE any allocation, so a
// hostile count cannot force a huge allocation.
func (r *reader) keys(dst []sortutil.Key) []sortutil.Key {
	n64 := r.uvarint()
	if r.bad {
		return nil
	}
	rem := len(r.b) - r.off
	if n64 > uint64(rem/8) {
		r.bad = true
		return nil
	}
	n := int(n64)
	if cap(dst) < n {
		dst = make([]sortutil.Key, n)
	}
	dst = dst[:n]
	raw := r.bytes(n * 8)
	if r.bad {
		return nil
	}
	if hostLittleEndian {
		copy(keyBytes(dst), raw)
	} else {
		for i := range dst {
			dst[i] = sortutil.Key(binary.LittleEndian.Uint64(raw[i*8:]))
		}
	}
	return dst
}

// config decodes one engine configuration. List lengths are validated
// against the remaining frame bytes (each entry is at least one byte)
// before allocating.
// config decodes a Config, appending fault lists into the caller's
// scratch slices (pass nil when there is nothing to reuse) — the proxy
// hot path decodes the same shapes over and over and must not allocate
// per frame. Empty lists decode to nil, matching the encoder's view
// that nil and empty are the same wire bytes.
func (r *reader) config(faults []cube.NodeID, links [][2]cube.NodeID) engine.Config {
	var cfg engine.Config
	cfg.Dim = int(r.uvarint())
	cfg.Model = machine.FaultModel(r.byte())
	cfg.Protocol = bitonic.Protocol(r.byte())
	cfg.Routing = machine.RoutingPolicy(r.byte())
	flags := r.byte()
	if flags&^1 != 0 {
		r.bad = true // unknown flag bits: not representable, reject
		return cfg
	}
	cfg.AccountDistribution = flags&1 != 0
	cfg.Cost.Compare = machine.Time(r.i64())
	cfg.Cost.Elem = machine.Time(r.i64())
	cfg.Cost.Startup = machine.Time(r.i64())
	nf := r.uvarint()
	if r.bad || nf > uint64(len(r.b)-r.off) {
		r.bad = true
		return cfg
	}
	if nf > 0 {
		cfg.Faults = faults[:0]
		for i := uint64(0); i < nf; i++ {
			cfg.Faults = append(cfg.Faults, r.node())
		}
	}
	nl := r.uvarint()
	if r.bad || nl > uint64(len(r.b)-r.off) {
		r.bad = true
		return cfg
	}
	if nl > 0 {
		cfg.LinkFaults = links[:0]
		for i := uint64(0); i < nl; i++ {
			cfg.LinkFaults = append(cfg.LinkFaults, [2]cube.NodeID{r.node(), r.node()})
		}
	}
	return cfg
}

// feedback decodes the response load trailer.
func (r *reader) feedback() Feedback {
	return Feedback{Inflight: r.i64(), QueueWaitNs: r.i64()}
}

// err decodes an encoded error (kind byte + message).
func (r *reader) err() error {
	kind := r.byte()
	if kind > errKindUnrecoverable {
		r.bad = true
		return nil
	}
	n := r.uvarint()
	if r.bad || n > uint64(len(r.b)-r.off) {
		r.bad = true
		return nil
	}
	msg := string(r.bytes(int(n)))
	var base error
	switch kind {
	case errKindAdmission:
		base = engine.ErrAdmissionRejected
	case errKindUnrecoverable:
		base = engine.ErrUnrecoverable
	}
	return &wireError{msg: msg, base: base}
}

// DecodeFrame decodes one frame body (the bytes after the length
// prefix) into f, reusing f's key buffers when their capacity suffices.
// Arbitrary input never panics: any structural violation returns an
// error wrapping ErrBadFrame, and list lengths are validated against
// the body size before any allocation. Fields of f not used by the
// decoded type are reset.
func DecodeFrame(f *Frame, body []byte) error {
	reqKeys, resKeys := f.Req.Keys, f.Res.Keys
	reqFaults, reqLinks := f.Req.Config.Faults, f.Req.Config.LinkFaults
	cfgFaults, cfgLinks := f.Cfg.Faults, f.Cfg.LinkFaults
	*f = Frame{}
	r := &reader{b: body}
	if v := r.byte(); v != Version {
		if r.bad {
			return fmt.Errorf("%w: empty body", ErrBadFrame)
		}
		return fmt.Errorf("%w: protocol version %d, want %d", ErrBadFrame, v, Version)
	}
	f.Type = r.byte()
	f.Corr = r.uvarint()
	switch f.Type {
	case TReq:
		f.Req.Op = engine.Op(r.byte())
		f.Req.K = int(r.i64())
		f.Deadline = r.i64()
		f.Req.Config = r.config(reqFaults, reqLinks)
		f.Req.Keys = r.keys(reqKeys[:0])
	case TRes:
		if r.boolByte() {
			f.Res.Err = r.err()
			f.Feedback = r.feedback()
			break
		}
		f.Res.Direct = r.boolByte()
		f.Res.Value = sortutil.Key(r.varint())
		f.Res.Res.Makespan = machine.Time(r.i64())
		f.Res.Res.Messages = r.i64()
		f.Res.Res.KeysSent = r.i64()
		f.Res.Res.KeyHops = r.i64()
		f.Res.Res.Comparisons = r.i64()
		f.Res.Res.RecvWaits = r.i64()
		f.Res.Res.LinkWait = machine.Time(r.i64())
		f.Res.Res.MaxLinkOccupancy = r.i64()
		f.Res.Res.StripedSends = r.i64()
		f.Feedback = r.feedback()
		f.Res.Keys = r.keys(resKeys[:0])
	case TProbe, TMetrics:
		// Empty payloads.
	case TProbeAck:
		f.Feedback = r.feedback()
	case TInject:
		f.Cfg = r.config(cfgFaults, cfgLinks)
		n := r.uvarint()
		if r.bad || n > uint64(len(r.b)-r.off)+1 {
			return fmt.Errorf("%w: injection count %d exceeds frame", ErrBadFrame, n)
		}
		f.Injs = make([]machine.Injection, n)
		for i := range f.Injs {
			f.Injs[i].Kind = machine.InjectionKind(r.byte())
			f.Injs[i].Node = r.node()
			f.Injs[i].Link[0] = r.node()
			f.Injs[i].Link[1] = r.node()
			f.Injs[i].At = machine.Time(r.i64())
			f.Injs[i].AfterMessages = r.i64()
		}
	case TDisarm:
		f.Cfg = r.config(cfgFaults, cfgLinks)
	case TAck:
		if r.boolByte() {
			f.Err = r.err()
		}
		f.Feedback = r.feedback()
	case TMetricsAck:
		for _, v := range metricsFields(&f.Metrics) {
			*v = r.i64()
		}
		f.Feedback = r.feedback()
	default:
		return fmt.Errorf("%w: unknown frame type %d", ErrBadFrame, f.Type)
	}
	if r.bad {
		return fmt.Errorf("%w: truncated %s frame", ErrBadFrame, typeName(f.Type))
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes after %s frame", ErrBadFrame, len(r.b)-r.off, typeName(f.Type))
	}
	return nil
}

// typeName names a frame type for error messages.
func typeName(t byte) string {
	switch t {
	case TReq:
		return "request"
	case TRes:
		return "result"
	case TProbe:
		return "probe"
	case TProbeAck:
		return "probe-ack"
	case TInject:
		return "inject"
	case TDisarm:
		return "disarm"
	case TAck:
		return "ack"
	case TMetrics:
		return "metrics"
	case TMetricsAck:
		return "metrics-ack"
	}
	return fmt.Sprintf("type-%d", t)
}

// max64 is the int64 maximum (the wire encodes counters as uvarints, so
// negatives — which should not occur — clamp to zero rather than
// exploding into 2^64-ish values).
func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
