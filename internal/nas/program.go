package nas

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"upmgo/internal/machine"
	"upmgo/internal/omp"
)

// Program is the recorded access program of one numeric trajectory:
// for every timed step, each team member's exact sequence of CPU calls
// (Load, Store, LoadRun, StoreRun, Flops, Advance) and omp EventSet
// calls, with the master's region forks (and their names), every
// member's barriers and region ends, and the marked phase's
// PhaseEnter/PhaseExit. Placements, engines and bindings never change a
// kernel value, so one free-run execution of the kernel yields the
// program — and its Verify verdict — for every run with the same
// programKey; each run then replays it through the same omp and CPU
// calls instead of executing the kernel.
//
// Storage is interned: a member's stream is cut at every mark into
// chunks, identical chunks (across members and steps) are stored once,
// and a step whose chunk lists equal the previous step's shares them.
// A Program is immutable once recorded and may be replayed by any
// number of concurrent cells.
type Program struct {
	key     string
	threads int
	pages   uint64 // allocated pages of the machine it was recorded on
	names   []string
	events  []int // tags of each recorded omp.EventSet, by id
	chunks  [][]op
	steps   [][][]int32 // steps[s][member]: chunk ids in order
	verify  error
	bytes   int64
}

// op is one recorded call in 16 bytes: a is the address, the flop
// count, the picoseconds, an event tag or (for opFork) the region-name
// index; n is a run's element count or an awaited event's owner; k
// holds the opKind in its low kindBits bits and a run's byte stride or
// an event set's id above them.
type op struct {
	a uint64
	n uint32
	k uint32
}

type opKind uint32

// The first six kinds are machine.Op's and the next three omp.EventSet
// calls; the rest are marks, and a mark always ends its chunk.
const (
	opLoad     = opKind(machine.OpLoad)
	opStore    = opKind(machine.OpStore)
	opLoadRun  = opKind(machine.OpLoadRun)
	opStoreRun = opKind(machine.OpStoreRun)
	opFlops    = opKind(machine.OpFlops)
	opAdvance  = opKind(machine.OpAdvance)
)

const (
	opPost = opAdvance + 1 + iota
	opWait
	opReset
	opFork
	opBarrier
	opDone
	opPhaseEnter
	opPhaseExit
)

const (
	kindBits  = 4
	kindMask  = 1<<kindBits - 1
	maxStride = 1<<(32-kindBits) - 1
	opBytes   = 16
)

func (o op) kind() opKind { return opKind(o.k & kindMask) }

// Bytes returns the program's size: its interned chunks, step tables
// and region names.
func (p *Program) Bytes() int64 { return p.bytes }

// fits rejects replaying p in a run with numeric key key on machine m:
// a program from another trajectory, or one recorded over a different
// allocation (its addresses would not be the run's).
func (p *Program) fits(key string, m *machine.Machine) error {
	if p.key != key {
		return fmt.Errorf("nas: program %q does not match run %q", p.key, key)
	}
	if got := m.AllocatedPages(); got != p.pages {
		return fmt.Errorf("nas: program %q was recorded over %d pages, the machine has %d allocated", p.key, p.pages, got)
	}
	return nil
}

// replay drives one run's timed loop from a program: it is the run's
// stepper, and it owns the run's event sets and its per-step cursors.
type replay struct {
	p    *Program
	sets []*omp.EventSet // by recorded id, made on the run's team
	seqs [][]int32       // the current step's chunk lists
	pos  []int           // per member: the next chunk
}

func newReplay(p *Program) *replay {
	return &replay{p: p, pos: make([]int, p.threads)}
}

func (r *replay) verdict() error { return r.p.verify }

// step replays timed step s (1-based) on t: the master's serial calls
// on the current master CPU, each recorded region as a ParallelNamed
// region whose members replay their own streams (barriers included) on
// their bound CPUs, and the phase marks through h.
func (r *replay) step(t *omp.Team, s int, h *Hooks) {
	if r.sets == nil {
		for _, tags := range r.p.events {
			r.sets = append(r.sets, omp.NewEventSet(t, tags))
		}
	}
	r.seqs = r.p.steps[s-1]
	clear(r.pos)
	seq := r.seqs[0]
	for r.pos[0] < len(seq) {
		ops := r.p.chunks[seq[r.pos[0]]]
		r.pos[0]++
		c := t.Master()
		last := ops[len(ops)-1]
		if last.kind() < opFork {
			r.run(c, nil, ops)
			continue
		}
		r.run(c, nil, ops[:len(ops)-1])
		switch last.kind() {
		case opFork:
			t.ParallelNamed(r.p.names[last.a], r.member)
		case opPhaseEnter:
			h.PhaseEnter(c)
		case opPhaseExit:
			h.PhaseExit(c)
		}
	}
}

// member replays one member's region body: chunks up to its opDone,
// each ending at a barrier or at the body's end.
func (r *replay) member(tr *omp.Thread) {
	seq := r.seqs[tr.ID]
	for {
		ops := r.p.chunks[seq[r.pos[tr.ID]]]
		r.pos[tr.ID]++
		r.run(tr.CPU, tr, ops[:len(ops)-1])
		if ops[len(ops)-1].kind() == opDone {
			return
		}
		tr.Barrier()
	}
}

// run issues ops on c; tr is the member replaying them (nil on the
// master's serial stream, which holds no Post or Wait).
func (r *replay) run(c *machine.CPU, tr *omp.Thread, ops []op) {
	for i := range ops {
		o := &ops[i]
		switch o.kind() {
		case opLoad:
			c.Load(o.a)
		case opStore:
			c.Store(o.a)
		case opLoadRun:
			c.LoadRun(o.a, int(o.n), uint64(o.k>>kindBits))
		case opStoreRun:
			c.StoreRun(o.a, int(o.n), uint64(o.k>>kindBits))
		case opFlops:
			c.Flops(int(int64(o.a)))
		case opAdvance:
			c.Advance(int64(o.a))
		case opPost:
			r.sets[o.k>>kindBits].Post(tr, int(o.a))
		case opWait:
			r.sets[o.k>>kindBits].Wait(tr, int(o.n), int(o.a))
		case opReset:
			r.sets[o.k>>kindBits].Reset()
		}
	}
}

// record executes niter steps of k on team in free-run mode — clocks,
// counters and the tracer inert, so m and team are left as they were —
// with a recorder on the team and on every member's CPU, then runs
// Verify on the final numerics. The steps are charged to hs.Record and
// the check to hs.Verify. A kernel that enters omp Critical cannot be
// recorded (its clock hand-off is not a CPU call) and fails here.
func record(m *machine.Machine, k Kernel, team *omp.Team, key string, niter int, hs *HostStages) (*Program, error) {
	var t0 time.Time
	if hs != nil {
		t0 = time.Now()
	}
	n := team.Size()
	r := &recorder{
		p:     &Program{key: key, threads: n, pages: m.AllocatedPages()},
		cur:   make([][]op, n),
		seq:   make([][]int32, n),
		tapes: make([]tape, n),
		index: map[uint64][]int32{},
		names: map[string]uint64{},
		sets:  map[*omp.EventSet]uint32{},
	}
	cpus := team.Binding()
	for i, id := range cpus {
		r.tapes[i] = tape{r: r, member: i}
		m.CPU(id).SetRecorder(&r.tapes[i])
	}
	team.SetRecorder(r)
	m.SetFreeRun(true)
	h := &Hooks{rec: r}
	for s := 0; s < niter; s++ {
		k.Step(team, h)
		r.endStep()
	}
	m.SetFreeRun(false)
	team.SetRecorder(nil)
	for _, id := range cpus {
		m.CPU(id).SetRecorder(nil)
	}
	if r.err != nil {
		return nil, fmt.Errorf("nas: recording %s: %w", k.Name(), r.err)
	}
	p := r.p
	for i, st := range p.steps {
		if i > 0 && len(st) > 0 && &st[0] == &p.steps[i-1][0] {
			continue // shared with the previous step
		}
		for _, ids := range st {
			p.bytes += int64(len(ids)) * 4
		}
	}
	for _, name := range p.names {
		p.bytes += int64(len(name))
	}
	if hs != nil {
		hs.Record += time.Since(t0)
		t0 = time.Now()
	}
	p.verify = k.Verify()
	if hs != nil {
		hs.Verify += time.Since(t0)
	}
	return p, nil
}

// recorder builds a Program from the calls of one recording. Each
// member appends to its own open chunk from its own goroutine; closing
// a chunk interns it under mu.
type recorder struct {
	p     *Program
	cur   [][]op    // per member: the open chunk
	seq   [][]int32 // per member: the step's chunk ids so far
	tapes []tape
	names map[string]uint64 // master goroutine only

	mu    sync.Mutex
	index map[uint64][]int32 // chunk hash -> ids
	sets  map[*omp.EventSet]uint32
	err   error
}

// tape is one member's machine.Recorder.
type tape struct {
	r      *recorder
	member int
}

func (t *tape) Record(o machine.Op, arg uint64, n int, stride uint64) {
	k := opKind(o)
	if k == opLoadRun || k == opStoreRun {
		if n <= 0 {
			return // inert call
		}
		if uint64(n) > 1<<32-1 || stride > maxStride {
			t.r.fail(fmt.Errorf("run of %d elements at stride %d exceeds the op encoding", n, stride))
			return
		}
	}
	t.r.cur[t.member] = append(t.r.cur[t.member], op{a: arg, n: uint32(n), k: uint32(k) | uint32(stride)<<kindBits})
}

// Fork, Done, Barrier, Critical and the Event calls implement
// omp.Recorder.
func (r *recorder) Fork(name string) {
	id, ok := r.names[name]
	if !ok {
		id = uint64(len(r.p.names))
		r.names[name] = id
		r.p.names = append(r.p.names, name)
	}
	r.mark(0, opFork, id)
}

func (r *recorder) Done(member int)    { r.mark(member, opDone, 0) }
func (r *recorder) Barrier(member int) { r.mark(member, opBarrier, 0) }
func (r *recorder) Critical(int) {
	r.fail(fmt.Errorf("omp Critical cannot be recorded: its clock hand-off is not a CPU call"))
}

func (r *recorder) EventPost(member int, e *omp.EventSet, tag int) {
	r.cur[member] = append(r.cur[member], op{a: uint64(tag), k: uint32(opPost) | r.set(e)<<kindBits})
}

func (r *recorder) EventWait(member int, e *omp.EventSet, owner, tag int) {
	r.cur[member] = append(r.cur[member], op{a: uint64(tag), n: uint32(owner), k: uint32(opWait) | r.set(e)<<kindBits})
}

func (r *recorder) EventReset(e *omp.EventSet) {
	r.cur[0] = append(r.cur[0], op{k: uint32(opReset) | r.set(e)<<kindBits})
}

// set returns the id of event set e, numbering sets in order of first use.
func (r *recorder) set(e *omp.EventSet) uint32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	id, ok := r.sets[e]
	if !ok {
		id = uint32(len(r.p.events))
		r.sets[e] = id
		r.p.events = append(r.p.events, e.Tags())
	}
	return id
}

func (r *recorder) fail(err error) {
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

// mark appends a mark to member's open chunk and closes it.
func (r *recorder) mark(member int, k opKind, a uint64) {
	r.cur[member] = append(r.cur[member], op{a: a, k: uint32(k)})
	r.flush(member)
}

// flush interns member's open chunk, if any, and appends its id to the
// member's step list.
func (r *recorder) flush(member int) {
	c := r.cur[member]
	if len(c) == 0 {
		return
	}
	h := uint64(14695981039346656037) // FNV-1a over the op words
	for _, o := range c {
		h = (h ^ o.a) * 1099511628211
		h = (h ^ (uint64(o.n)<<32 | uint64(o.k))) * 1099511628211
	}
	r.mu.Lock()
	id := int32(-1)
	for _, cand := range r.index[h] {
		if slices.Equal(r.p.chunks[cand], c) {
			id = cand
			break
		}
	}
	if id < 0 {
		id = int32(len(r.p.chunks))
		r.p.chunks = append(r.p.chunks, slices.Clone(c))
		r.index[h] = append(r.index[h], id)
		r.p.bytes += int64(len(c)) * opBytes
	}
	r.mu.Unlock()
	r.seq[member] = append(r.seq[member], id)
	r.cur[member] = c[:0]
}

// endStep closes the step: the master's trailing serial calls become a
// final chunk, and the step's lists are stored — shared with the
// previous step's when equal, as they are for every step of the five
// paper kernels.
func (r *recorder) endStep() {
	r.flush(0)
	p := r.p
	if n := len(p.steps); n > 0 && slices.EqualFunc(p.steps[n-1], r.seq, slices.Equal[[]int32]) {
		p.steps = append(p.steps, p.steps[n-1])
	} else {
		st := make([][]int32, len(r.seq))
		for i, ids := range r.seq {
			st[i] = slices.Clone(ids)
		}
		p.steps = append(p.steps, st)
	}
	for i := range r.seq {
		r.seq[i] = r.seq[i][:0]
	}
}

// programKey identifies a run's float trajectory, and with it the access
// program: the benchmark, class, iteration count, resolved team size,
// seed and compute scale — exactly the fields that reach the kernel's
// arithmetic — plus the canonical topology. Placement, engines,
// perturbations and verification are deliberately absent: they act on
// page homes and clocks, never on values or addresses.
func programKey(k kernelInfo, c Config, threads int) string {
	key := fmt.Sprintf("%s class=%v iters=%d threads=%d seed=%d scale=%d",
		k.name, c.Class, k.iterations(c), threads, c.Seed, computeScale(c))
	if t := c.canonTopo(); t != "" {
		key += " topo=" + t
	}
	return key
}
