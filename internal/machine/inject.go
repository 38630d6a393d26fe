package machine

// Live fault injection: kill a processor or a link at a scheduled virtual
// time (or on the victim's Nth send) while kernels are running. The
// paper's fault model is static — §2's partition assumes the fault set is
// known before the sort starts — so injection is the bridge to the
// dynamic scenario: a fault fires mid-run, the victim's kernel aborts
// through the ordinary failure cascade (runState.fail → barrier and
// mailbox aborts), and the caller re-diagnoses and replans on the
// now-degraded machine.
//
// Design constraints, in order:
//
//  1. Zero disarmed overhead. Every Proc operation begins with one atomic
//     pointer load; nil means no injections and costs one predictable
//     branch. The benchmark gate (BENCH.json) holds the hot path to
//     this budget.
//  2. Deterministic firing. Triggers are defined purely in virtual time
//     (first victim operation at or after At) or in the victim's own
//     send count — never in host time or cross-node order — so a seeded
//     chaos schedule reproduces the same casualty at the same virtual
//     instant on every substrate.
//  3. Permanent death. Once fired, the victim stays dead for the
//     machine's lifetime (and, because the injector is shared exactly
//     like the buffer pool, for every Clone in the same pool): later
//     runs that still list the victim as a participant fail fast at its
//     first operation, which is what lets an engine detect the casualty
//     on re-dispatch instead of silently re-running on a broken node.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hypersort/internal/cube"
)

// InjectionKind selects what an Injection destroys.
type InjectionKind int

const (
	// KillNode makes a processor totally silent from the trigger on: its
	// kernel aborts at its next operation and never runs again.
	KillNode InjectionKind = iota
	// KillLink severs one hypercube edge: every later direct send across
	// it aborts the sender. Multi-hop routes are not re-examined — the
	// simulator prices paths by hop count without materializing
	// store-and-forward state per intermediate node, so a severed edge is
	// modeled at its endpoints only.
	KillLink
)

// String implements fmt.Stringer.
func (k InjectionKind) String() string {
	if k == KillLink {
		return "kill-link"
	}
	return "kill-node"
}

// Injection is one scheduled fault.
type Injection struct {
	// Kind selects processor or link death.
	Kind InjectionKind
	// Node is the KillNode victim.
	Node cube.NodeID
	// Link is the KillLink edge (either endpoint order).
	Link [2]cube.NodeID
	// At is the virtual trigger time: the fault fires at the victim's
	// first operation whose clock has reached At. Zero fires at the
	// victim's very first operation.
	At Time
	// AfterMessages, when positive, replaces the time trigger for
	// KillNode: the victim dies on its AfterMessages-th send. It is
	// counted against the victim's own sends, so the trigger is
	// deterministic regardless of host scheduling.
	AfterMessages int64
}

// ProcessorDiedError reports a KillNode injection firing: the victim's
// kernel aborted mid-run and the processor is permanently dead on this
// machine (and its pool).
type ProcessorDiedError struct {
	// Node is the dead processor.
	Node cube.NodeID
	// At is the victim's virtual clock when the fault fired.
	At Time
}

// Error implements the error interface.
func (e ProcessorDiedError) Error() string {
	return fmt.Sprintf("machine: processor %d died at virtual time %d", e.Node, e.At)
}

// LinkDiedError reports a KillLink injection firing on a send across the
// severed edge.
type LinkDiedError struct {
	// Link is the dead edge, oriented as configured.
	Link [2]cube.NodeID
	// At is the sender's virtual clock when the fault fired.
	At Time
}

// Error implements the error interface.
func (e LinkDiedError) Error() string {
	return fmt.Sprintf("machine: link %d-%d died at virtual time %d", e.Link[0], e.Link[1], e.At)
}

// IsInjectedDeath reports whether err (anywhere in its chain) is a fired
// injection — the signal recovery layers dispatch on.
func IsInjectedDeath(err error) bool {
	var pd ProcessorDiedError
	var ld LinkDiedError
	return errors.As(err, &pd) || errors.As(err, &ld)
}

// armedInjection is one schedule entry plus its firing state. fired flips
// exactly once (CAS) and firedAt records the virtual time of death for
// reporting.
type armedInjection struct {
	inj     Injection
	fired   atomic.Bool
	firedAt atomic.Int64
	// sent counts the victim's sends for AfterMessages triggers. On a
	// shared (pooled) injector concurrent machines count together; the
	// deterministic-schedule guarantee applies to single-machine use.
	sent atomic.Int64
}

// fire marks the injection fired at virtual time t. The first caller
// wins; later calls are no-ops.
func (a *armedInjection) fire(t Time) {
	if a.fired.CompareAndSwap(false, true) {
		a.firedAt.Store(int64(t))
	}
}

// injector holds a machine's (or pool's) injection schedule. The read
// path is one atomic pointer load — nil means disarmed — and the schedule
// slice is immutable once published, so Proc operations iterate it
// without locks. Arming replaces the slice copy-on-write under mu.
type injector struct {
	sched atomic.Pointer[[]*armedInjection]
	mu    sync.Mutex
}

// load returns the current schedule, or nil when disarmed.
func (ij *injector) load() []*armedInjection {
	if p := ij.sched.Load(); p != nil {
		return *p
	}
	return nil
}

// arm appends entries to the schedule (copy-on-write).
func (ij *injector) arm(entries []*armedInjection) {
	ij.mu.Lock()
	defer ij.mu.Unlock()
	var next []*armedInjection
	if p := ij.sched.Load(); p != nil {
		next = append(next, *p...)
	}
	next = append(next, entries...)
	ij.sched.Store(&next)
}

// Arm schedules injections on the machine. The injector is shared with
// every Clone (before or after the call), so arming a pool's template
// arms the whole pool. Each injection is validated against the topology;
// on error nothing is armed. Arming is safe while runs are in flight.
func (m *Machine) Arm(injs ...Injection) error {
	entries := make([]*armedInjection, 0, len(injs))
	for _, inj := range injs {
		switch inj.Kind {
		case KillNode:
			if !m.h.Contains(inj.Node) {
				return fmt.Errorf("machine: injection victim %d outside Q_%d", inj.Node, m.cfg.Dim)
			}
			if m.cfg.Faults.Has(inj.Node) {
				return fmt.Errorf("machine: injection victim %d is already faulty", inj.Node)
			}
		case KillLink:
			a, b := inj.Link[0], inj.Link[1]
			if !m.h.Contains(a) || !m.h.Contains(b) {
				return fmt.Errorf("machine: injected link %d-%d outside Q_%d", a, b, m.cfg.Dim)
			}
			if cube.HammingDistance(a, b) != 1 {
				return fmt.Errorf("machine: injected link %d-%d is not a hypercube edge", a, b)
			}
			if inj.AfterMessages > 0 {
				return fmt.Errorf("machine: AfterMessages trigger applies to KillNode only")
			}
		default:
			return fmt.Errorf("machine: unknown injection kind %d", int(inj.Kind))
		}
		if inj.At < 0 || inj.AfterMessages < 0 {
			return fmt.Errorf("machine: negative injection trigger")
		}
		entries = append(entries, &armedInjection{inj: inj})
	}
	m.inj.arm(entries)
	return nil
}

// DisarmInjections clears the schedule, including already-fired entries:
// the machine (and its Clones) is whole again. Call only with no run in
// flight on any machine sharing the injector.
func (m *Machine) DisarmInjections() { m.inj.sched.Store(nil) }

// InjectionsArmed reports whether the machine (or any Clone sharing its
// injector) has a non-empty injection schedule — fired entries included,
// since a fired-but-not-disarmed schedule still shapes runs. One atomic
// load; safe concurrently with runs, arming, and disarming.
func (m *Machine) InjectionsArmed() bool { return len(m.inj.load()) > 0 }

// FiredFaults returns the casualties so far: processors and links whose
// injections have fired. Safe to call concurrently with runs (a fault
// firing during the call may or may not be included).
func (m *Machine) FiredFaults() (nodes []cube.NodeID, links [][2]cube.NodeID) {
	for _, a := range m.inj.load() {
		if !a.fired.Load() {
			continue
		}
		if a.inj.Kind == KillNode {
			nodes = append(nodes, a.inj.Node)
		} else {
			links = append(links, a.inj.Link)
		}
	}
	return nodes, links
}

// Survivors returns the healthy processors minus fired KillNode victims —
// the participant set for an online diagnosis round after a casualty.
func (m *Machine) Survivors() []cube.NodeID {
	dead, _ := m.FiredFaults()
	if len(dead) == 0 {
		return append([]cube.NodeID(nil), m.healthy...)
	}
	ds := cube.NewNodeSet(dead...)
	out := make([]cube.NodeID, 0, len(m.healthy)-len(ds))
	for _, id := range m.healthy {
		if !ds.Has(id) {
			out = append(out, id)
		}
	}
	return out
}

// checkInjections is the non-send trigger check, called at the entry of
// Recv, Compute, and Barrier when the schedule is non-nil: a KillNode
// victim whose time trigger has been reached (or whose injection already
// fired) aborts here. Send triggers (message counting, link checks) live
// in checkSendInjections.
func (p *Proc) checkInjections(sched []*armedInjection) {
	for _, a := range sched {
		if a.inj.Kind != KillNode || a.inj.Node != p.nd.id {
			continue
		}
		if a.fired.Load() {
			p.fail(ProcessorDiedError{Node: p.nd.id, At: Time(a.firedAt.Load())})
		}
		if a.inj.AfterMessages == 0 && p.nd.clock >= a.inj.At {
			a.fire(p.nd.clock)
			p.fail(ProcessorDiedError{Node: p.nd.id, At: p.nd.clock})
		}
	}
}

// checkSendInjections is the Send-entry check: KillNode time and
// send-count triggers for the sender, and KillLink triggers for the
// (sender, dst) edge. It runs before any payload buffer is acquired, so
// an aborting send can never leak a pooled buffer.
func (p *Proc) checkSendInjections(sched []*armedInjection, dst cube.NodeID) {
	for _, a := range sched {
		switch a.inj.Kind {
		case KillNode:
			if a.inj.Node != p.nd.id {
				continue
			}
			if a.fired.Load() {
				p.fail(ProcessorDiedError{Node: p.nd.id, At: Time(a.firedAt.Load())})
			}
			if a.inj.AfterMessages > 0 {
				if a.sent.Add(1) >= a.inj.AfterMessages {
					a.fire(p.nd.clock)
					p.fail(ProcessorDiedError{Node: p.nd.id, At: p.nd.clock})
				}
			} else if p.nd.clock >= a.inj.At {
				a.fire(p.nd.clock)
				p.fail(ProcessorDiedError{Node: p.nd.id, At: p.nd.clock})
			}
		case KillLink:
			l := a.inj.Link
			if !(l[0] == p.nd.id && l[1] == dst) && !(l[1] == p.nd.id && l[0] == dst) {
				continue
			}
			if a.fired.Load() {
				p.fail(LinkDiedError{Link: l, At: Time(a.firedAt.Load())})
			}
			if p.nd.clock >= a.inj.At {
				a.fire(p.nd.clock)
				p.fail(LinkDiedError{Link: l, At: p.nd.clock})
			}
		}
	}
}

// PeerDead reports whether addr is dead from this processor's point of
// view: configured faulty or a fired KillNode victim. Diagnosis kernels
// use it as the ground truth their neighbor tests observe.
func (p *Proc) PeerDead(addr cube.NodeID) bool {
	if p.m.cfg.Faults.Has(addr) {
		return true
	}
	for _, a := range p.m.inj.load() {
		if a.inj.Kind == KillNode && a.inj.Node == addr && a.fired.Load() {
			return true
		}
	}
	return false
}

// LinkDead reports whether the a-b edge is dead: configured in
// Config.LinkFaults or a fired KillLink victim. Symmetric in its
// arguments.
func (p *Proc) LinkDead(a, b cube.NodeID) bool {
	if p.m.cfg.LinkFaults.Has(a, b) {
		return true
	}
	for _, ai := range p.m.inj.load() {
		if ai.inj.Kind != KillLink || !ai.fired.Load() {
			continue
		}
		l := ai.inj.Link
		if (l[0] == a && l[1] == b) || (l[0] == b && l[1] == a) {
			return true
		}
	}
	return false
}
