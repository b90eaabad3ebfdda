// Package faultline is a deterministic, seedable fault-injection layer for
// the storage and network planes. It exists because the system's hard
// invariants — no torn snapshot generations, exactly-once federation folds,
// no mixed-generation batches — only matter if they hold when disks fail
// mid-rename and networks drop mid-segment, and those failures must be
// *reproducible* to be debuggable.
//
// The package offers two shims:
//
//   - An FS interface (see fs.go) that internal/snapshot and internal/logio
//     write through. FaultFS wraps any FS and injects write/fsync/rename
//     errors, short writes, and crash points that freeze the directory
//     state — every operation after a crash point fails, simulating the
//     moment a process dies with the disk in whatever state the completed
//     operations left it.
//   - An http.RoundTripper (see transport.go) that the federation shipper
//     and the cluster gateway's replica client can be pointed at. It
//     injects added latency, connection resets, truncated response bodies,
//     and synthesized 5xx storms.
//
// Determinism model: every interceptable operation is identified by an Op —
// a kind ("write", "rename", "http", ...), a key (the path or route), and a
// per-(kind,key) sequence number assigned by the shim. An Injector maps Ops
// to Decisions. The seeded Plan injector is a *pure function* of (seed, Op):
// it keeps no mutable state, so the same traffic pattern sees the identical
// fault schedule on every run, regardless of goroutine interleaving. A
// Trace records every (Op, Decision) pair and renders them sorted, so two
// runs of a deterministic workload produce byte-identical logs — the chaos
// CI gate diffs them.
//
// Scope note: crash points freeze *completed* operations. The shim does not
// model loss of written-but-unsynced page-cache data; it models the process
// dying, which is the failure mode the snapshot store's rename protocol and
// the spool's seal protocol are designed around (both fsync before every
// publishing rename).
package faultline

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// ErrInjected is the root of every fault this package injects; test code
// can errors.Is against it to tell injected faults from real ones.
var ErrInjected = errors.New("faultline: injected fault")

// ErrCrashed is returned by every operation on a filesystem frozen at a
// crash point. It wraps ErrInjected.
var ErrCrashed = fmt.Errorf("%w: filesystem frozen at crash point", ErrInjected)

// Op identifies one interceptable operation.
type Op struct {
	// Kind is the operation class: "create", "write", "sync", "rename",
	// "remove", "mkdir", "readdir", "read", "stat" for filesystems, "http"
	// for the transport.
	Kind string
	// Key scopes the sequence: a file path for filesystems, the request
	// route for the transport (see Transport.KeyFunc).
	Key string
	// Seq is the 1-based sequence number of this (Kind, Key) pair, assigned
	// by the shim that observed the operation.
	Seq uint64
}

// Decision is what an Injector wants done to one operation. The zero value
// means "no fault".
type Decision struct {
	// Err fails the operation: filesystems return it from the op, the
	// transport returns it from RoundTrip (a connection reset).
	Err error
	// Short truncates: a file write persists only Short bytes before
	// failing; an HTTP response body yields only Short bytes before
	// failing with an unexpected EOF.
	Short int
	// Crash freezes the filesystem after this operation is refused: the op
	// does not apply, and every later op on the same FaultFS fails with
	// ErrCrashed. Ignored by the transport.
	Crash bool
	// Latency delays an HTTP attempt before anything else happens. Ignored
	// by filesystems.
	Latency time.Duration
	// Status, when non-zero, synthesizes an HTTP response with this status
	// code without reaching the wrapped transport (a 5xx storm). Ignored by
	// filesystems.
	Status int
}

// fault reports whether the decision does anything.
func (d Decision) fault() bool {
	return d.Err != nil || d.Short > 0 || d.Crash || d.Latency > 0 || d.Status != 0
}

// String renders the decision deterministically for trace logs.
func (d Decision) String() string {
	if !d.fault() {
		return "ok"
	}
	var parts []string
	if d.Crash {
		parts = append(parts, "crash")
	}
	if d.Short > 0 {
		parts = append(parts, fmt.Sprintf("short=%d", d.Short))
	}
	if d.Err != nil {
		parts = append(parts, "err="+d.Err.Error())
	}
	if d.Status != 0 {
		parts = append(parts, fmt.Sprintf("status=%d", d.Status))
	}
	if d.Latency > 0 {
		parts = append(parts, fmt.Sprintf("latency=%s", d.Latency))
	}
	return strings.Join(parts, ",")
}

// Injector decides the fate of operations. Implementations must be safe
// for concurrent use and — if the byte-identical replay gate matters —
// pure functions of the Op.
type Injector interface {
	Decide(op Op) Decision
}

// Clean is the no-fault injector.
type Clean struct{}

// Decide returns the zero Decision.
func (Clean) Decide(Op) Decision { return Decision{} }

// seqTracker hands out per-(kind,key) sequence numbers. Shims embed one so
// the Op stream presented to an Injector is stable across runs of a
// deterministic workload.
type seqTracker struct {
	mu   sync.Mutex
	seqs map[string]uint64
}

func (s *seqTracker) next(kind, key string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.seqs == nil {
		s.seqs = make(map[string]uint64)
	}
	k := kind + "\x00" + key
	s.seqs[k]++
	return s.seqs[k]
}

// Trace records every observed (Op, Decision) pair. Log renders the events
// sorted by (Kind, Key, Seq), so the bytes are independent of goroutine
// interleaving: a deterministic workload produces a byte-identical trace on
// every run with the same seed. A nil *Trace is a no-op.
type Trace struct {
	mu     sync.Mutex
	events []traceEvent
}

type traceEvent struct {
	op Op
	d  string
}

// Record notes one decision.
func (t *Trace) Record(op Op, d Decision) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, traceEvent{op: op, d: d.String()})
	t.mu.Unlock()
}

// Faults counts recorded events that injected something.
func (t *Trace) Faults() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, e := range t.events {
		if e.d != "ok" {
			n++
		}
	}
	return n
}

// Log renders the trace as one line per event, sorted by (Kind, Key, Seq).
func (t *Trace) Log() []byte {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	evs := make([]traceEvent, len(t.events))
	copy(evs, t.events)
	t.mu.Unlock()
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i].op, evs[j].op
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Key != b.Key {
			return a.Key < b.Key
		}
		return a.Seq < b.Seq
	})
	var sb strings.Builder
	for _, e := range evs {
		fmt.Fprintf(&sb, "%s %s #%d -> %s\n", e.op.Kind, e.op.Key, e.op.Seq, e.d)
	}
	return []byte(sb.String())
}

// StepInjector applies one fixed Decision to the Nth operation it is asked
// about (1-based, counted over ops passing Filter), and leaves every other
// operation clean. It is the building block of exhaustive crash matrices:
// run once to count ops, then re-run once per step with D set to a failure
// or a crash point.
type StepInjector struct {
	// N is the 1-based index of the op to hit. 0 hits nothing.
	N int64
	// D is the decision applied at op N.
	D Decision
	// Filter selects which ops count toward N; nil counts mutating
	// filesystem ops (create, write, sync, rename, remove, mkdir).
	Filter func(Op) bool

	mu sync.Mutex
	n  int64
}

// Mutating reports whether op changes filesystem state.
func Mutating(op Op) bool {
	switch op.Kind {
	case "create", "write", "sync", "rename", "remove", "mkdir":
		return true
	}
	return false
}

// Decide implements Injector.
func (s *StepInjector) Decide(op Op) Decision {
	filter := s.Filter
	if filter == nil {
		filter = Mutating
	}
	if !filter(op) {
		return Decision{}
	}
	s.mu.Lock()
	s.n++
	hit := s.n == s.N
	s.mu.Unlock()
	if hit {
		return s.D
	}
	return Decision{}
}

// Seen returns how many filtered ops this injector has counted.
func (s *StepInjector) Seen() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}
