// Package trace records virtual-time-stamped simulation events: parallel
// region forks and joins, barrier arrivals and releases, marked-phase
// boundaries, per-iteration timing marks, page faults, TLB shootdown
// rounds, and every action of the two migration engines (kernel scans,
// UPMlib invocations, record–replay page lists).
//
// The paper's claims are event claims — "UPMlib migrates after the first
// iteration, then deactivates itself", "replay moves the top-n critical
// pages before z_solve and undo restores them after" — and aggregate
// end-of-run statistics cannot falsify them. A trace can: the protocol
// and golden-trace tests in internal/nas assert directly against the
// event stream.
//
// Determinism contract: events carry the emitting CPU's virtual clock and
// a per-CPU sequence number stamped at emission. Within one CPU lane,
// emission order is program order; Recorder.Events merges lanes by
// (Time, CPU, Seq), which is a total order (Seq is unique per lane), so
// the merged stream of a deterministic run is itself deterministic — the
// same property the golden-trace test relies on. Machine-level events
// that happen at quiescent points (barrier settlement, kernel-engine
// scans) are attributed to the pseudo-lane KernelCPU.
//
// Tracing never charges virtual time. An attached Tracer observes clocks;
// it must not advance them, so traced and untraced runs are bit-identical
// (internal/nas's TestTracingOffOnEquivalence proves it per benchmark).
package trace

import (
	"sort"
	"sync"
)

// Kind identifies an event type.
type Kind uint8

// Event kinds. The Arg0/Arg1 conventions per kind are documented on each
// constant; unused args are zero.
const (
	// EvRegionFork marks a parallel region start on the master CPU, before
	// the fork overhead is charged. Name is the region's label.
	EvRegionFork Kind = iota + 1
	// EvRegionJoin marks the region's join-barrier settlement; the span
	// fork→join is the region's wall virtual time including barriers and
	// barrier-hook (kernel engine) work.
	EvRegionJoin
	// EvBarrierArrive is one thread reaching a barrier, stamped with the
	// arriving CPU's own clock.
	EvBarrierArrive
	// EvBarrierRelease is the settled release time of a barrier, on the
	// kernel lane. Arg0 is the team size.
	EvBarrierRelease
	// EvPhaseEnter/EvPhaseExit bracket the kernel's marked phase (z_solve
	// in BT and SP) on the master CPU.
	EvPhaseEnter
	EvPhaseExit
	// EvIterStart/EvIterEnd bracket one timed main-loop iteration on the
	// master CPU. Arg0 is the 1-based step; EvIterEnd.Arg1 is the
	// iteration's virtual duration in picoseconds.
	EvIterStart
	EvIterEnd
	// EvPageFault is a first-touch page allocation. Arg0 is the vpn,
	// Arg1 the home node chosen.
	EvPageFault
	// EvShootdown is one machine-wide TLB shootdown round. Arg0 is the
	// number of rounds (always 1 except for the kernel engine, which pays
	// one round per page). Name says who paid: "kmig", "upm", "replay",
	// "undo", or "collapse" (replica collapse on write).
	EvShootdown
	// EvKmigScan is one kernel-engine scan at a barrier, on the kernel
	// lane. Arg0 is the number of pages moved, Arg1 the picoseconds
	// charged to the barrier.
	EvKmigScan
	// EvKmigMigrate carries the page list of a kernel-engine scan that
	// moved pages. Arg0 is the move count.
	EvKmigMigrate
	// EvUPMRegister is one MemRefCnt hot-range registration. Arg0/Arg1
	// are the [lo, hi) vpn bounds.
	EvUPMRegister
	// EvUPMMigrate is one MigrateMemory invocation on the calling CPU.
	// Arg0 is the number of pages moved, Arg1 the 1-based invocation
	// number; Pages lists the moves.
	EvUPMMigrate
	// EvUPMDeactivate marks the engine's self-deactivation (the
	// invocation that found nothing to move).
	EvUPMDeactivate
	// EvUPMRecord is one counter snapshot (upmlib_record). Arg0 is the
	// snapshot index.
	EvUPMRecord
	// EvUPMCompare is the plan construction (upmlib_compare_counters).
	// Arg0 is the number of plans, Arg1 the total planned moves.
	EvUPMCompare
	// EvUPMReplay is one replay application. Arg0 is the number of pages
	// moved, Arg1 the plan index applied; Pages lists the moves.
	EvUPMReplay
	// EvUPMUndo is one undo application; Arg0 and Pages as in EvUPMReplay.
	EvUPMUndo
	// EvSteadyState marks the iteration at whose end the steady-state
	// detector proved the per-iteration counter delta repeats. Arg0 is the
	// 1-based iteration, Arg1 the window length (consecutive identical
	// deltas observed).
	EvSteadyState
	// EvExtrapolate marks a steady-state fast-forward: the remaining
	// iterations were not simulated; their virtual time and counters were
	// added analytically. The event is stamped with the post-jump clock;
	// Arg0 is the number of extrapolated iterations, Arg1 the total
	// picoseconds they account for. The trace deliberately contains no
	// iter/region/barrier events for the extrapolated span — Summary's
	// ExtrapolatedIters/ExtrapolatedPS fields restore the sum contract.
	EvExtrapolate
)

var kindNames = [...]string{
	EvRegionFork:     "region_fork",
	EvRegionJoin:     "region_join",
	EvBarrierArrive:  "barrier_arrive",
	EvBarrierRelease: "barrier_release",
	EvPhaseEnter:     "phase_enter",
	EvPhaseExit:      "phase_exit",
	EvIterStart:      "iter_start",
	EvIterEnd:        "iter_end",
	EvPageFault:      "page_fault",
	EvShootdown:      "shootdown",
	EvKmigScan:       "kmig_scan",
	EvKmigMigrate:    "kmig_migrate",
	EvUPMRegister:    "upm_register",
	EvUPMMigrate:     "upm_migrate",
	EvUPMDeactivate:  "upm_deactivate",
	EvUPMRecord:      "upm_record",
	EvUPMCompare:     "upm_compare",
	EvUPMReplay:      "upm_replay",
	EvUPMUndo:        "upm_undo",
	EvSteadyState:    "steady_state",
	EvExtrapolate:    "extrapolate",
}

// String returns the kind's snake_case name.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// KernelCPU is the pseudo-lane for machine-level events emitted at
// quiescent points (barrier settlement, kernel-engine scans) rather than
// by one application thread.
const KernelCPU = -1

// PageMove is one page migration: vpn moved From → To.
type PageMove struct {
	VPN  uint64 `json:"vpn"`
	From int    `json:"from"`
	To   int    `json:"to"`
}

// Event is one trace record.
type Event struct {
	Time  int64  // virtual picoseconds of the emitting clock
	CPU   int    // emitting CPU id, or KernelCPU
	Seq   uint64 // per-CPU emission index, stamped by the Recorder
	Kind  Kind
	Name  string // region label, shootdown payer, ... (kind-specific)
	Arg0  int64  // kind-specific (see the Kind constants)
	Arg1  int64
	Pages []PageMove // migration page lists (nil unless the kind carries one)
}

// Tracer receives events. Implementations must be safe for concurrent
// Emit calls (team threads emit from their own goroutines) and must not
// advance any simulated clock: tracing is observation only, which is what
// keeps traced and untraced runs bit-identical.
type Tracer interface {
	Emit(ev Event)
}

// Recorder is the standard Tracer: an append buffer with per-CPU
// sequence stamping. The zero value is not ready; use NewRecorder.
type Recorder struct {
	mu     sync.Mutex
	events []Event
	seq    map[int]uint64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{seq: make(map[int]uint64)}
}

// Emit appends the event, stamping its per-CPU sequence number. Event
// volume is modest (thousands per run — engines and barriers, not memory
// accesses), so a single mutex costs less than per-lane buffers would
// and keeps Len/Events trivially consistent.
func (r *Recorder) Emit(ev Event) {
	r.mu.Lock()
	ev.Seq = r.seq[ev.CPU]
	r.seq[ev.CPU]++
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Reset discards all recorded events and sequence state.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.events = nil
	r.seq = make(map[int]uint64)
	r.mu.Unlock()
}

// Events returns a copy of the recorded events merged deterministically:
// sorted by (Time, CPU, Seq). Seq is unique within a CPU lane, so the
// order is total, and within a lane it preserves program order even for
// equal timestamps (a settled barrier gives many events the same clock).
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		if a.CPU != b.CPU {
			return a.CPU < b.CPU
		}
		return a.Seq < b.Seq
	})
	return out
}
