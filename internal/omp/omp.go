// Package omp implements the OpenMP-like execution model of the paper on
// top of the simulated machine: fork/join parallel regions, worksharing
// loops with the OpenMP SCHEDULE kinds (static, static-chunked, dynamic,
// guided), barriers, master/single/critical constructs and reductions.
//
// The runtime executes each team member on its own goroutine bound to one
// simulated CPU, so simulations use real host parallelism, while all
// *simulated* timing flows through the per-CPU virtual clocks and the
// barrier settlement in the machine package. Fork, join and barrier
// overheads are charged explicitly; the paper's discussion of OpenMP
// parallelism-management overhead ("critical task size") corresponds to
// these constants.
package omp

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"upmgo/internal/machine"
	"upmgo/internal/trace"
)

// Schedule selects how loop iterations map to threads.
type Schedule struct {
	kind  schedKind
	chunk int
}

type schedKind int

const (
	schedStatic schedKind = iota
	schedStaticChunk
	schedDynamic
	schedGuided
)

// Static partitions the iteration space into one contiguous block per
// thread (OpenMP SCHEDULE(STATIC)). This is the schedule the NAS codes
// use; it makes iteration-to-thread mapping, and hence first-touch page
// placement, deterministic.
func Static() Schedule { return Schedule{kind: schedStatic} }

// StaticChunk deals chunks of the given size round-robin
// (SCHEDULE(STATIC, chunk)).
func StaticChunk(chunk int) Schedule { return Schedule{kind: schedStaticChunk, chunk: chunk} }

// Dynamic hands out chunks first-come-first-served (SCHEDULE(DYNAMIC,
// chunk)). Chunk assignment depends on host scheduling, so runs using it
// are not bit-reproducible; the NAS reproductions do not use it.
func Dynamic(chunk int) Schedule { return Schedule{kind: schedDynamic, chunk: max(1, chunk)} }

// Guided hands out exponentially shrinking chunks (SCHEDULE(GUIDED)).
// Like Dynamic, it is first-come-first-served.
func Guided(minChunk int) Schedule { return Schedule{kind: schedGuided, chunk: max(1, minChunk)} }

// Team is a fork/join group of simulated threads pinned 1:1 onto the
// machine's CPUs in id order (the paper runs on an idle machine, so we
// model perfect, stable thread-to-processor binding).
type Team struct {
	m        *machine.Machine
	n        int
	serial   bool
	binding  []int // thread i runs on CPU binding[i]
	barrier  *clockBarrier
	lastJoin int64 // time of the previous join; serial sections span from here

	// Persistent worker lanes: member i>0 of every non-serial region runs
	// on lanes[i-1], a goroutine that lives for the team's lifetime, so a
	// run's thousands of parallel regions reuse n-1 goroutines instead of
	// spawning n fresh ones each. Member 0 runs on the caller's goroutine.
	// Started lazily by the first non-serial region; each member needs its
	// own lane (not a smaller pool) because region bodies block on
	// mid-region barriers that only release once every member arrives.
	// Workers reference only their channel — never the Team — so the
	// finalizer set at startLanes can close the channels and let the
	// workers exit once the team becomes unreachable.
	lanes []chan func()

	red struct {
		vals []float64
		out  float64
	}

	critMu sync.Mutex
	crit   map[string]*critSection

	rec Recorder // nil unless a recording is attached (SetRecorder)
}

// Recorder observes a team's fork/join structure while attached with
// SetRecorder: together with machine.Recorder on each member's CPU it
// sees every call a region body makes, in each member's own order.
type Recorder interface {
	// Fork runs on the master's goroutine before a region's bodies.
	Fork(name string)
	// Done runs on a member's goroutine when its region body returns.
	Done(thread int)
	// Barrier runs when a member arrives at a barrier (including the
	// barriers inside For, reductions and Single).
	Barrier(thread int)
	// Critical runs when a member enters a critical section, whose
	// clock hand-off cannot be recorded as CPU calls.
	Critical(thread int)
	// EventPost, EventWait and EventReset run for the EventSet calls of
	// the same names, in place of the clock effects Post and Wait charge
	// (a recording runs in free-run mode, where those are inert anyway).
	// Reset has no thread: it runs at a quiescent point on the master or
	// on thread 0, and is attributed to thread 0.
	EventPost(thread int, e *EventSet, tag int)
	EventWait(thread int, e *EventSet, owner, tag int)
	EventReset(e *EventSet)
}

// SetRecorder attaches r to the team; nil detaches it.
func (t *Team) SetRecorder(r Recorder) { t.rec = r }

// NewTeam creates a team of n threads on m. n must be between 1 and the
// machine's CPU count.
func NewTeam(m *machine.Machine, n int) (*Team, error) {
	if n < 1 || n > m.NumCPUs() {
		return nil, fmt.Errorf("omp: team size %d out of range 1..%d", n, m.NumCPUs())
	}
	t := &Team{m: m, n: n, binding: make([]int, n)}
	for i := range t.binding {
		t.binding[i] = i
	}
	t.barrier = newClockBarrier()
	t.red.vals = make([]float64, n)
	return t, nil
}

// MustTeam is NewTeam for statically known sizes.
func MustTeam(m *machine.Machine, n int) *Team {
	t, err := NewTeam(m, n)
	if err != nil {
		panic(err)
	}
	return t
}

// Size returns the number of threads.
func (t *Team) Size() int { return t.n }

// Machine returns the underlying machine.
func (t *Team) Machine() *machine.Machine { return t.m }

// SetSerial switches the team to serial execution: thread bodies run one
// after another, to completion, on the calling goroutine. This makes
// first-touch fault resolution fully deterministic, which is why the NAS
// drivers use it for the cold-start placement iteration. Restrictions: in
// serial mode barriers degenerate (no cross-thread rendezvous is possible),
// so region bodies must not consume values produced by *other* threads
// between barriers — the cold-start iteration discards its results, so
// this is safe there — and Dynamic/Guided schedules panic. Virtual-time
// settlement still happens once per barrier phase, attributed when the
// last thread passes.
func (t *Team) SetSerial(serial bool) { t.serial = serial }

// SetBinding changes the thread-to-CPU mapping: thread i subsequently
// runs on CPU perm[i]. perm must be a permutation of distinct CPU ids.
// The paper assumes stable bindings on an idle machine and defers
// scheduler interference to its companion work; this hook models that
// interference — an OS that migrates threads invalidates the locality any
// page placement or migration engine established, which is what UPMlib's
// reactivation then repairs.
func (t *Team) SetBinding(perm []int) error {
	if len(perm) != t.n {
		return fmt.Errorf("omp: binding has %d entries for a team of %d", len(perm), t.n)
	}
	seen := make(map[int]bool, t.n)
	for _, c := range perm {
		if c < 0 || c >= t.m.NumCPUs() || seen[c] {
			return fmt.Errorf("omp: binding %v is not a permutation of distinct CPU ids", perm)
		}
		seen[c] = true
	}
	// The new CPUs inherit the team's notion of time.
	now := t.Master().Now()
	copy(t.binding, perm)
	for _, c := range t.cpus() {
		if c.Now() < now {
			c.SetClock(now)
		}
	}
	return nil
}

// Binding returns a copy of the current thread-to-CPU mapping.
func (t *Team) Binding() []int { return append([]int(nil), t.binding...) }

// Thread is the per-member view inside a parallel region.
type Thread struct {
	ID   int
	CPU  *machine.CPU
	team *Team
}

// Parallel runs body on every team member (the OpenMP PARALLEL
// construct). The master's clock plus the fork overhead seeds every
// member's clock; join settles the final region and leaves the master
// clock at the join time. Nested Parallel calls are not supported.
func (t *Team) Parallel(body func(tr *Thread)) { t.parallel("", body) }

// ParallelNamed is Parallel with a region label for the trace layer: the
// fork and join events carry the name, so a trace summary can break the
// run down by phase (compute_rhs, x_solve, ...) the way the paper's
// Figure 5 does. With no tracer attached the name is inert.
func (t *Team) ParallelNamed(name string, body func(tr *Thread)) { t.parallel(name, body) }

func (t *Team) parallel(name string, body func(tr *Thread)) {
	if t.rec != nil {
		t.rec.Fork(name)
		inner := body
		body = func(tr *Thread) {
			inner(tr)
			t.rec.Done(tr.ID)
		}
	}
	if t.m.FreeRun() {
		// Free-run: clocks are frozen and Settle/SetClock/Tracer are
		// inert, so skip the timing choreography and just execute the
		// bodies — barriers and reductions still rendezvous so the
		// kernel's numerics come out bit-identical to a simulated region.
		t.runBodies(body)
		return
	}
	master := t.Master()
	// Settle the serial section the master executed since the last join,
	// so its access tallies do not leak into the parallel region.
	master.SetClock(t.m.Settle([]*machine.CPU{master}, t.lastJoin))
	// The fork event is stamped before the fork overhead and the join
	// event after the join barrier settles, so named region spans and the
	// serial gaps between them tile the timeline exactly (the trace
	// summary's sum contract).
	if trc := t.m.Tracer(); trc != nil {
		trc.Emit(trace.Event{Time: master.Now(), CPU: master.ID, Kind: trace.EvRegionFork, Name: name})
	}
	start := master.Now() + t.m.Lat.Fork
	cpus := t.cpus()
	for _, c := range cpus {
		c.SetClock(start)
	}
	t.barrier.reset(start)
	t.runBodies(body)
	// Implicit join barrier: settle the last region.
	end := t.m.Settle(cpus, t.barrier.regionStart) + t.m.Lat.BarrierBase + int64(t.n)*t.m.Lat.BarrierPerCPU
	for _, c := range cpus {
		c.SetClock(end)
	}
	t.lastJoin = end
	if trc := t.m.Tracer(); trc != nil {
		trc.Emit(trace.Event{Time: end, CPU: master.ID, Kind: trace.EvRegionJoin, Name: name})
	}
}

// runBodies executes body once per member: sequentially in serial mode,
// otherwise member 0 on the calling goroutine and members 1..n-1 on the
// team's persistent lanes.
func (t *Team) runBodies(body func(tr *Thread)) {
	if t.serial {
		for i := 0; i < t.n; i++ {
			body(&Thread{ID: i, CPU: t.m.CPU(t.binding[i]), team: t})
		}
		return
	}
	if t.lanes == nil && t.n > 1 {
		t.startLanes()
	}
	var wg sync.WaitGroup
	wg.Add(t.n - 1)
	for i := 1; i < t.n; i++ {
		id := i
		t.lanes[id-1] <- func() {
			defer wg.Done()
			body(&Thread{ID: id, CPU: t.m.CPU(t.binding[id]), team: t})
		}
	}
	body(&Thread{ID: 0, CPU: t.m.CPU(t.binding[0]), team: t})
	wg.Wait()
}

// startLanes spawns the persistent worker goroutines. The finalizer is
// the teardown path: workers hold only their channel, so when the Team
// becomes unreachable the finalizer closes the channels and every worker
// returns. No work can be in flight then — dispatching requires a live
// Team reference.
func (t *Team) startLanes() {
	t.lanes = make([]chan func(), t.n-1)
	for i := range t.lanes {
		ch := make(chan func(), 1)
		t.lanes[i] = ch
		go func() {
			for f := range ch {
				f()
			}
		}()
	}
	lanes := t.lanes
	runtime.SetFinalizer(t, func(*Team) {
		for _, ch := range lanes {
			close(ch)
		}
	})
}

func (t *Team) cpus() []*machine.CPU {
	cpus := make([]*machine.CPU, t.n)
	for i := range cpus {
		cpus[i] = t.m.CPU(t.binding[i])
	}
	return cpus
}

// Master returns the master CPU (thread 0's processor) for serial
// sections between parallel regions.
func (t *Team) Master() *machine.CPU { return t.m.CPU(t.binding[0]) }

// Barrier synchronises the team: contention settlement for the region
// since the previous barrier, then clock alignment plus barrier overhead.
// It must be called by every member (as in OpenMP).
func (tr *Thread) Barrier() {
	tr.team.barrier.wait(tr, nil)
}

// For executes the loop [lo, hi) with the given schedule; body receives
// the thread's CPU and a [from, to) sub-range. A worksharing barrier
// follows unless nowait; pass Nowait to skip it (OpenMP NOWAIT).
func (tr *Thread) For(lo, hi int, s Schedule, body func(c *machine.CPU, from, to int), opts ...Option) {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	switch s.kind {
	case schedStatic:
		n := hi - lo
		if n > 0 {
			chunk := (n + tr.team.n - 1) / tr.team.n
			from := lo + tr.ID*chunk
			to := min(from+chunk, hi)
			if from < to {
				body(tr.CPU, from, to)
			}
		}
	case schedStaticChunk:
		for from := lo + tr.ID*s.chunk; from < hi; from += tr.team.n * s.chunk {
			body(tr.CPU, from, min(from+s.chunk, hi))
		}
	case schedDynamic:
		if tr.team.serial {
			panic("omp: Dynamic schedule is invalid in serial mode")
		}
		for {
			from := int(tr.team.barrier.dyn.Add(int64(s.chunk))) - s.chunk + lo
			if from >= hi {
				break
			}
			body(tr.CPU, from, min(from+s.chunk, hi))
		}
	case schedGuided:
		if tr.team.serial {
			panic("omp: Guided schedule is invalid in serial mode")
		}
		for {
			remaining := hi - lo - int(tr.team.barrier.dyn.Load())
			if remaining <= 0 {
				break
			}
			take := max(s.chunk, remaining/(2*tr.team.n))
			from := int(tr.team.barrier.dyn.Add(int64(take))) - take + lo
			if from >= hi {
				break
			}
			body(tr.CPU, from, min(from+take, hi))
		}
	}
	if !o.nowait {
		tr.Barrier()
		if s.kind == schedDynamic || s.kind == schedGuided {
			if tr.ID == 0 {
				tr.team.barrier.dyn.Store(0)
			}
			tr.Barrier() // all see the reset before the next shared loop
		}
	} else if s.kind == schedDynamic || s.kind == schedGuided {
		panic("omp: Nowait is not supported with Dynamic/Guided schedules")
	}
}

// Option modifies a worksharing construct.
type Option func(*options)

type options struct{ nowait bool }

// Nowait removes the implicit barrier at the end of a worksharing loop.
func Nowait(o *options) { o.nowait = true }

// ReduceSum performs a barrier-synchronised sum reduction and returns the
// total to every thread.
func (tr *Thread) ReduceSum(v float64) float64 {
	t := tr.team
	t.red.vals[tr.ID] = v
	tr.team.barrier.wait(tr, func() {
		s := 0.0
		for _, x := range t.red.vals[:t.n] {
			s += x
		}
		t.red.out = s
	})
	out := t.red.out
	tr.Barrier() // keep red.out stable until everyone has read it
	return out
}

// ReduceMax performs a barrier-synchronised max reduction.
func (tr *Thread) ReduceMax(v float64) float64 {
	t := tr.team
	t.red.vals[tr.ID] = v
	tr.team.barrier.wait(tr, func() {
		s := t.red.vals[0]
		for _, x := range t.red.vals[1:t.n] {
			if x > s {
				s = x
			}
		}
		t.red.out = s
	})
	out := t.red.out
	tr.Barrier()
	return out
}

// Single runs f on thread 0 only, with barriers on both sides so that all
// threads observe its effects (OpenMP SINGLE + implicit barrier; we pin it
// to the master for determinism, making it equivalent to MASTER+BARRIER).
func (tr *Thread) Single(f func(c *machine.CPU)) {
	tr.Barrier()
	if tr.ID == 0 {
		f(tr.CPU)
	}
	tr.Barrier()
}

// Sections distributes the given section bodies over threads round-robin
// (OpenMP SECTIONS) and barriers at the end.
func (tr *Thread) Sections(sections ...func(c *machine.CPU)) {
	for i := tr.ID; i < len(sections); i += tr.team.n {
		sections[i](tr.CPU)
	}
	tr.Barrier()
}

// clockBarrier is a reusable sense-reversing barrier that also performs
// virtual-time settlement: the last thread to arrive settles the region
// with the machine's contention model and establishes the new region
// start.
type clockBarrier struct {
	mu          sync.Mutex
	cond        *sync.Cond
	team        *Team
	count       int
	phase       uint64
	regionStart int64
	dyn         atomic.Int64 // shared iteration counter for dynamic/guided
}

func newClockBarrier() *clockBarrier {
	b := &clockBarrier{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *clockBarrier) reset(start int64) {
	b.regionStart = start
	b.count = 0
	b.dyn.Store(0)
}

// wait blocks until all team members arrive. The last arriver runs
// lastFn (if any), settles clocks, and releases the others.
func (b *clockBarrier) wait(tr *Thread, lastFn func()) {
	t := tr.team
	if t.rec != nil {
		t.rec.Barrier(tr.ID)
	}
	if trc := t.m.Tracer(); trc != nil {
		trc.Emit(trace.Event{Time: tr.CPU.Now(), CPU: tr.CPU.ID, Kind: trace.EvBarrierArrive})
	}
	if t.serial {
		// In serial mode all members of the "parallel" region run
		// sequentially; barriers degenerate to settlement once per
		// phase. We emulate by settling when thread n-1 arrives.
		if tr.ID == t.n-1 {
			if lastFn != nil {
				lastFn()
			}
			b.settle(t)
		}
		return
	}
	b.mu.Lock()
	phase := b.phase
	b.count++
	if b.count == t.n {
		if lastFn != nil {
			lastFn()
		}
		b.settle(t)
		b.count = 0
		b.phase++
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	for phase == b.phase {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

func (b *clockBarrier) settle(t *Team) {
	if t.m.FreeRun() {
		// Clocks are frozen; the rendezvous above was the whole point.
		return
	}
	cpus := t.cpus()
	end := t.m.Settle(cpus, b.regionStart) + t.m.Lat.BarrierBase + int64(t.n)*t.m.Lat.BarrierPerCPU
	for _, c := range cpus {
		c.SetClock(end)
	}
	b.regionStart = end
	// The release is a machine-level quiescent point (hooks have run), not
	// one thread's action; it goes on the kernel lane.
	if trc := t.m.Tracer(); trc != nil {
		trc.Emit(trace.Event{Time: end, CPU: trace.KernelCPU, Kind: trace.EvBarrierRelease, Arg0: int64(t.n)})
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
