// Package kmig implements the baseline the paper compares against: an
// IRIX-style, kernel-level competitive page migration engine in the spirit
// of Verghese et al. (ASPLOS'96), the design the Origin2000 kernel adopted.
//
// The hardware counts, per page frame, the memory accesses from every
// node. When the count from some remote node exceeds the count from the
// page's home node by more than a threshold, the kernel migrates the page
// to that node, invalidating TLB entries machine-wide.
//
// The real engine is interrupt-driven; the simulator applies the same
// criterion at barriers (its quiescent points), which keeps runs
// deterministic. The migration cost — page copy plus one TLB-shootdown
// interrupt per processor — is charged to the barrier time, since every
// processor participates in the shootdown.
package kmig

import (
	"math"

	"upmgo/internal/machine"
	"upmgo/internal/trace"
	"upmgo/internal/vm"
)

// Config tunes the kernel engine.
type Config struct {
	// Threshold is the excess of remote over home accesses that triggers
	// a migration (the IRIX "predefined threshold").
	Threshold uint32 `json:"threshold,omitempty"`
	// MaxPerScan bounds migrations applied at one barrier, modelling the
	// kernel's resource-management throttle. 0 means the default.
	MaxPerScan int `json:"max_per_scan,omitempty"`
	// ScanEvery applies the policy only at every k-th barrier, modelling
	// the bounded rate at which interrupts fire. 0 means every barrier.
	ScanEvery int `json:"scan_every,omitempty"`
	// DecayEvery halves every page's counters at every k-th scan (the
	// kernel's aging step; it also un-saturates the 11-bit counters).
	// 0 means the default; negative disables decay.
	DecayEvery int `json:"decay_every,omitempty"`
	// MinScanPS spaces scans by simulated time: a barrier is eligible to
	// scan only when at least this many picoseconds have passed since the
	// last scan. The real daemon runs off the clock tick, not off every
	// synchronisation point, so on machines whose barriers are microseconds
	// apart it integrates counters over many barriers before deciding —
	// which is what filters out per-phase repartitioning flutter (pages
	// legitimately touched by different nodes in different phases of one
	// step). 0 means the default (64 page-migration costs, bounding the
	// worst-case scan overhead to a fraction of runtime); negative disables
	// the spacing so every barrier is eligible.
	MinScanPS int64 `json:"min_scan_ps,omitempty"`
}

// DefaultConfig mirrors the spirit of the IRIX defaults: migrate on a
// clear excess, few pages at a time. The threshold of 32 is calibrated
// to the paper machine's page geometry — 16KB pages of 128-byte L2
// lines, i.e. an excess worth a quarter of the page's coherence units;
// Attach rescales that ratio when the attached machine's pages hold a
// different number of lines (the shrunken Class S/W machines).
func DefaultConfig() Config {
	return Config{Threshold: 32, MaxPerScan: 16, ScanEvery: 1, DecayEvery: 1}
}

// Engine is an attached kernel migration engine.
type Engine struct {
	m   *machine.Machine
	cfg Config

	enabled  bool
	barriers int64
	scans    int64
	lastScan int64 // simulated time of the last scan; MinInt64 before any

	migrations int64
	rejected   int64 // candidates dropped by the per-scan throttle
	costPS     int64 // total picoseconds charged

	row []uint32 // scratch counter row
}

// Attach creates the engine and registers it on the machine's barriers.
// It starts enabled; SetEnabled(false) corresponds to running without
// DSM_MIGRATION.
func Attach(m *machine.Machine, cfg Config) *Engine {
	if cfg.Threshold == 0 {
		// Scale the default to the machine: the canonical 32 assumes
		// 16KB/128B = 128 lines per page, so keep the excess at a
		// quarter of the lines one page holds.
		cfg.Threshold = uint32(m.Cfg.PageBytes/m.Cfg.L2Line) / 4
		if cfg.Threshold == 0 {
			cfg.Threshold = 1
		}
	}
	if cfg.MaxPerScan == 0 {
		// The canonical 16 is the IRIX throttle on the paper's 16-CPU
		// machine: one page per processor per scan. Hierarchical machines
		// have more processors generating counter traffic, so the scan
		// budget scales with them; at or below 16 CPUs (every paper-class
		// machine) the default is unchanged.
		cfg.MaxPerScan = max(DefaultConfig().MaxPerScan, m.NumCPUs())
	}
	if cfg.ScanEvery == 0 {
		cfg.ScanEvery = 1
	}
	if cfg.DecayEvery == 0 {
		cfg.DecayEvery = DefaultConfig().DecayEvery
	}
	if cfg.MinScanPS == 0 {
		cfg.MinScanPS = 64 * m.MigrationCost()
	}
	e := &Engine{m: m, cfg: cfg, enabled: true, lastScan: math.MinInt64,
		row: make([]uint32, m.Topo.Nodes())}
	m.AddBarrierHook(e.hook)
	return e
}

// SetEnabled turns the engine on or off (DSM_MIGRATION).
func (e *Engine) SetEnabled(on bool) { e.enabled = on }

// Enabled reports whether the engine is active.
func (e *Engine) Enabled() bool { return e.enabled }

// Migrations returns the number of pages the engine has moved.
func (e *Engine) Migrations() int64 { return e.migrations }

// Rejected returns the number of eligible pages dropped by the throttle.
func (e *Engine) Rejected() int64 { return e.rejected }

// Cost returns the total picoseconds of migration overhead charged.
func (e *Engine) Cost() int64 { return e.costPS }

// CounterLen returns the length AppendCounters appends.
func (e *Engine) CounterLen() int { return 6 }

// AppendCounters appends the engine's cumulative counters — barriers
// seen, scans run, pages migrated, candidates rejected, picoseconds
// charged, and the lastScan time cursor — to dst and returns it. The
// steady-state detector folds them into the per-iteration delta vector:
// equal deltas mean the engine does the same work (possibly none) every
// iteration. lastScan must be included: it is decision state (the
// MinScanPS gate reads it), and equal scan-count deltas alone do not pin
// the scan-spacing phase — a time-gated scan cadence that divides the
// iteration time unevenly drifts through the iterations while keeping
// per-iteration scan counts equal, until an iteration suddenly gets one
// scan more or fewer (FT's short Class S iterations exhibit exactly
// this). With lastScan in the vector such drift breaks delta equality
// and the detector rightly refuses to fire.
func (e *Engine) AppendCounters(dst []int64) []int64 {
	return append(dst, e.barriers, e.scans, e.migrations, e.rejected, e.costPS, e.lastScan)
}

// AppendCounterNames appends one name per AppendCounters slot, in the
// same order, for by-name reporting of delta-vector indices.
func (e *Engine) AppendCounterNames(dst []string) []string {
	return append(dst, "kmig_barriers", "kmig_scans", "kmig_migrations",
		"kmig_rejected", "kmig_cost_ps", "kmig_last_scan")
}

// ApplyCounterDelta advances the counters by k repetitions of a
// per-iteration delta (laid out as AppendCounters), extrapolating the
// work the engine would have done over k more identical iterations.
// lastScan advances with its proven delta too: on a periodic orbit the
// last scan time moves forward by exactly the cycle's span, which keeps
// the MinScanPS gate's phase correct if charged simulation ever resumes
// after the jump.
func (e *Engine) ApplyCounterDelta(delta []int64, k int64) {
	if len(delta) != e.CounterLen() {
		panic("kmig: counter delta length mismatch")
	}
	e.barriers += delta[0] * k
	e.scans += delta[1] * k
	e.migrations += delta[2] * k
	e.rejected += delta[3] * k
	e.costPS += delta[4] * k
	e.lastScan += delta[5] * k
}

// ScanCursor is the engine's barrier-gating state: everything the hook
// reads to decide whether a barrier scans. StepBarrier advances a cursor
// over any page table with exactly the code path the live hook runs, so
// callers can drive the engine's scan logic outside a barrier.
type ScanCursor struct {
	Barriers, Scans, LastScan int64
}

// Cursor returns the engine's current gating state.
func (e *Engine) Cursor() ScanCursor {
	return ScanCursor{Barriers: e.barriers, Scans: e.scans, LastScan: e.lastScan}
}

// GatePhase returns the ScanEvery gate's modular position — the one piece
// of decision state that per-iteration counter deltas cannot expose. Two
// iterations with identical deltas but different phases behave differently
// at future barriers (the gate fires on barriers ≡ 0 mod ScanEvery), so
// the steady-state detector folds the phase into its state hash: a long
// scan cadence's quiet stretches then never masquerade as a period-one
// orbit. Always 0 when the gate is trivial (ScanEvery ≤ 1).
func (e *Engine) GatePhase() int64 {
	if e.cfg.ScanEvery > 1 {
		return e.barriers % int64(e.cfg.ScanEvery)
	}
	return 0
}

// Resolved returns the engine's configuration with defaults applied.
func (e *Engine) Resolved() Config { return e.cfg }

// ScanResult is one StepBarrier outcome. Scanned is false when a gate
// (ScanEvery, MinScanPS) suppressed the scan.
type ScanResult struct {
	Scanned  bool
	Moved    int
	Rejected int64
	Cost     int64
	Moves    []trace.PageMove // nil unless collectMoves
}

// StepBarrier advances cur through one barrier at time now against pt:
// the gating, scanning and migration logic of the live hook, operating
// on caller-provided state. It mutates pt (migrations, counter resets,
// decay) and cur but never the engine's own counters.
func (e *Engine) StepBarrier(cur *ScanCursor, pt *vm.PageTable, now int64, collectMoves bool) ScanResult {
	cur.Barriers++
	if e.cfg.ScanEvery > 1 && cur.Barriers%int64(e.cfg.ScanEvery) != 0 {
		return ScanResult{}
	}
	if e.cfg.MinScanPS > 0 && cur.LastScan != math.MinInt64 && now-cur.LastScan < e.cfg.MinScanPS {
		return ScanResult{}
	}
	cur.LastScan = now
	cur.Scans++
	moved := 0
	var rejected, cost int64
	perPage := e.m.MigrationCost()
	npages := e.m.AllocatedPages()
	decay := e.cfg.DecayEvery > 0 && cur.Scans%int64(e.cfg.DecayEvery) == 0
	var moves []trace.PageMove
	for vpn := uint64(0); vpn < npages; vpn++ {
		home := pt.Home(vpn)
		if home < 0 {
			continue
		}
		row := pt.Counters(vpn, e.row)
		if decay {
			// Decisions below use the copied row; age the live counters.
			pt.DecayCounters(vpn)
		}
		best, bestCount := -1, uint32(0)
		for n, c := range row {
			if n != home && c > bestCount {
				best, bestCount = n, c
			}
		}
		if best < 0 || bestCount <= row[home] || bestCount-row[home] <= e.cfg.Threshold {
			continue
		}
		if moved >= e.cfg.MaxPerScan {
			rejected++
			continue
		}
		if res := pt.Migrate(vpn, best); res.Moved {
			moved++
			cost += perPage
			pt.ResetCounters(vpn)
			if collectMoves {
				moves = append(moves, trace.PageMove{VPN: vpn, From: res.From, To: res.Dest})
			}
		}
	}
	return ScanResult{Scanned: true, Moved: moved, Rejected: rejected, Cost: cost, Moves: moves}
}

// hook runs at every barrier: scan the allocated pages, apply the
// competitive criterion, migrate up to MaxPerScan pages, reset the moved
// pages' counters, and return the overhead to add to the barrier time.
func (e *Engine) hook(now int64) int64 {
	if !e.enabled {
		return 0
	}
	cur := e.Cursor()
	trc := e.m.Tracer()
	r := e.StepBarrier(&cur, e.m.PT, now, trc != nil)
	e.barriers, e.scans, e.lastScan = cur.Barriers, cur.Scans, cur.LastScan
	if !r.Scanned {
		return 0
	}
	e.migrations += int64(r.Moved)
	e.rejected += r.Rejected
	e.costPS += r.Cost
	if trc != nil {
		trc.Emit(trace.Event{Time: now, CPU: trace.KernelCPU, Kind: trace.EvKmigScan,
			Arg0: int64(r.Moved), Arg1: r.Cost})
		if r.Moved > 0 {
			trc.Emit(trace.Event{Time: now, CPU: trace.KernelCPU, Kind: trace.EvKmigMigrate,
				Arg0: int64(r.Moved), Pages: r.Moves})
			// The interrupt-driven engine pays one shootdown round per page
			// (MigrationCost), unlike UPMlib's batched single round.
			trc.Emit(trace.Event{Time: now, CPU: trace.KernelCPU, Kind: trace.EvShootdown,
				Name: "kmig", Arg0: int64(r.Moved)})
		}
	}
	return r.Cost
}
