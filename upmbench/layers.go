package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"os"
	"sync"
	"time"

	"upmgo/internal/exp"
	"upmgo/internal/kmig"
	"upmgo/internal/machine"
	"upmgo/internal/memsys"
	"upmgo/internal/nas"
	"upmgo/internal/omp"
	"upmgo/internal/store"
	"upmgo/internal/upm"
	"upmgo/internal/vm"
)

// The layer drivers time calls into each module's public functions on
// inputs drawn from the workload seed. Each reports the median over
// batches of its time per unit of work, plus how many units it timed.

// layerBudget bounds each driver's timed loop.
const layerBudget = 300 * time.Millisecond

// sink keeps timed results live so the compiler cannot drop the calls.
var sink uint64

// batches times body, which performs units units of work per call, in
// batches of at least ~2ms until budget is spent (and at least 5
// batches), and returns the median ns per unit and the units timed.
func batches(budget time.Duration, units int, body func()) (float64, int) {
	per := 1
	for {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			body()
		}
		if time.Since(t0) >= 2*time.Millisecond || per >= 1<<20 {
			break
		}
		per *= 2
	}
	var samples []float64
	total := 0
	end := time.Now().Add(budget)
	for len(samples) < 5 || time.Now().Before(end) {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			body()
		}
		samples = append(samples, float64(time.Since(t0))/float64(per*units))
		total += per * units
	}
	return median(samples), total
}

// each times op individually after an untimed prep, for calls that need
// fresh state every time, and returns the median ns per call.
func each(budget time.Duration, prep, op func()) (float64, int) {
	var samples []float64
	end := time.Now().Add(budget)
	for len(samples) < 5 || time.Now().Before(end) {
		prep()
		t0 := time.Now()
		op()
		samples = append(samples, float64(time.Since(t0)))
	}
	return median(samples), len(samples)
}

// classWMachine builds the Class W Origin2000 the figure cells run on.
func classWMachine(p vm.Policy, seed uint64) *machine.Machine {
	mc := machine.DefaultConfig()
	nas.ClassW.MachineTweak(&mc)
	mc.Placement = p
	mc.Seed = seed
	return machine.MustNew(mc)
}

func (r *run) layerDrivers() error {
	rng := rand.New(rand.NewPCG(r.seed, 0x6c61796572))
	steps := []func(*rand.Rand) error{
		r.layerMemsys, r.layerMachine, r.layerVM, r.layerKmig, r.layerOmp, r.layerUPM,
		r.layerNAS, r.layerExp, r.layerStore,
	}
	for _, step := range steps {
		if err := step(rng); err != nil {
			return err
		}
	}
	return nil
}

// layerMemsys drives the Class W cache shapes with seeded strided
// streams over a footprint four times the L2, and the TLB with runs over
// more pages than it holds.
func (r *run) layerMemsys(rng *rand.Rand) error {
	const footprint = 256 << 10
	const nStreams = 4096
	l2 := memsys.MustCache(64<<10, 128, 2)
	lines := make([]uint64, nStreams)
	for i := range lines {
		lines[i] = uint64(rng.IntN(footprint/128-8)) * 128
	}
	i := 0
	ns, ops := batches(layerBudget, 8, func() {
		// 8 lines of 16 8-byte elements: a unit-stride run over one
		// coherence unit's worth of L2 lines.
		m, _, _ := l2.AccessLines(lines[i%nStreams], 8, 16, 16, 16, 0, 0)
		sink += uint64(m)
		i++
	})
	r.set("memsys.access_lines_ns_per_line", ns)
	r.set("memsys.access_lines.ops", float64(ops))

	l1 := memsys.MustCache(8<<10, 32, 2)
	strides := []uint64{32, 64, 256, 2048}
	i = 0
	ns, ops = batches(layerBudget, 64, func() {
		// 64 lines visited at a seeded stride, 4 elements per line.
		base, st := lines[i%nStreams], strides[i%len(strides)]
		for k := uint64(0); k < 64; k++ {
			if l1.AccessRange(base+k*st, 4, 0, 0) {
				sink++
			}
		}
		i++
	})
	r.set("memsys.access_range_ns_per_line", ns)
	r.set("memsys.access_range.ops", float64(ops))

	tlb := memsys.MustTLB(64, 8)
	pages := make([]uint64, nStreams)
	for i := range pages {
		pages[i] = uint64(rng.IntN(256))
	}
	i = 0
	ns, ops = batches(layerBudget, 32, func() {
		for k := 0; k < 32; k++ {
			if tlb.LookupRun(pages[(i+k)%nStreams], 0, 1024) {
				sink++
			}
		}
		i += 32
	})
	r.set("memsys.tlb_lookup_run_ns_per_page", ns)
	r.set("memsys.tlb_lookup_run.ops", float64(ops))
	return nil
}

// layerMachine drives CPU.LoadRun/StoreRun (touchRun) on one CPU over
// private lines, on 16 goroutine-driven CPUs storing to falsely shared
// lines (each 128-byte line holds two elements of each of 8 CPUs), and
// Machine.Settle on a 16-CPU region that just did that.
func (r *run) layerMachine(rng *rand.Rand) error {
	m := classWMachine(vm.FirstTouch, r.seed)
	const n = 1 << 16
	a := m.NewArray("private", n)
	c := m.CPU(0)
	offs := make([]int, 256)
	for i := range offs {
		offs[i] = rng.IntN(n - 4096)
	}
	i := 0
	ns, ops := batches(layerBudget, 4096, func() {
		o := offs[i%len(offs)]
		if i%2 == 0 {
			c.LoadRun(a.Addr(o), 4096, 8)
		} else {
			c.StoreRun(a.Addr(o), 4096, 8)
		}
		i++
	})
	r.set("machine.touch_run_ns_per_elem", ns)
	r.set("machine.touch_run.ops", float64(ops))

	shared := m.NewArray("shared", n)
	cpus := m.CPUs()
	const perCPU = 2
	span := len(cpus) * perCPU
	touchShared := func() {
		var wg sync.WaitGroup
		for id := range cpus {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				cpu := cpus[id]
				for base := 0; base+span <= 4096; base += span {
					cpu.StoreRun(shared.Addr(base+id*perCPU), perCPU, 8)
				}
			}(id)
		}
		wg.Wait()
	}
	ns, ops = batches(layerBudget, 4096, touchShared)
	r.set("machine.touch_run_shared_ns_per_elem", ns)
	r.set("machine.touch_run_shared.ops", float64(ops))

	var start int64
	ns, ops = each(layerBudget, touchShared, func() {
		start = m.Settle(cpus, start)
		for _, cpu := range cpus {
			cpu.SetClock(start)
		}
	})
	r.set("machine.settle_us_per_barrier", ns/1e3)
	r.set("machine.settle.ops", float64(ops))
	return nil
}

// layerVM drives the page table: resolves, counter bumps and migrations
// on seeded pages of a Class W machine's arena.
func (r *run) layerVM(rng *rand.Rand) error {
	m := classWMachine(vm.RoundRobin, r.seed)
	pt := m.PT
	const npages = 4096
	m.Alloc(npages * m.PageBytes())
	vpns := make([]uint64, 8192)
	nodes := make([]int, len(vpns))
	for i := range vpns {
		vpns[i] = uint64(rng.IntN(npages))
		nodes[i] = rng.IntN(pt.Nodes())
	}
	i := 0
	ns, ops := batches(layerBudget, 64, func() {
		for k := 0; k < 64; k++ {
			h, _, _ := pt.Resolve(vpns[(i+k)%len(vpns)], nodes[(i+k)%len(vpns)])
			sink += uint64(h)
		}
		i += 64
	})
	r.set("vm.resolve_ns", ns)
	r.set("vm.resolve.ops", float64(ops))
	i = 0
	ns, ops = batches(layerBudget, 64, func() {
		for k := 0; k < 64; k++ {
			pt.CountMissN(vpns[(i+k)%len(vpns)], nodes[(i+k)%len(vpns)], 3)
		}
		i += 64
	})
	r.set("vm.count_miss_n_ns", ns)
	r.set("vm.count_miss_n.ops", float64(ops))
	i = 0
	ns, ops = batches(layerBudget, 64, func() {
		for k := 0; k < 64; k++ {
			res := pt.Migrate(vpns[(i+k)%len(vpns)], nodes[(i+k*7)%len(vpns)])
			sink += uint64(res.From)
		}
		i += 64
	})
	r.set("vm.migrate_ns", ns)
	r.set("vm.migrate.ops", float64(ops))
	return nil
}

// layerKmig drives the IRIX-style engine's barrier step over 2048 pages
// whose counters were just loaded with seeded remote-heavy misses, so
// every step scans and migrates.
func (r *run) layerKmig(rng *rand.Rand) error {
	m := classWMachine(vm.WorstCase, r.seed)
	const npages = 2048
	m.Alloc(npages * m.PageBytes())
	for vpn := uint64(0); vpn < npages; vpn++ {
		m.PT.Resolve(vpn, 0)
	}
	e := kmig.Attach(m, kmig.Config{})
	e.SetEnabled(false) // stepped by hand below, not from barriers
	cur := e.Cursor()
	var now int64
	var moved int64
	ns, ops := each(layerBudget, func() {
		for k := 0; k < 256; k++ {
			m.PT.CountMissN(uint64(rng.IntN(npages)), 1+rng.IntN(m.PT.Nodes()-1), 64)
		}
	}, func() {
		now += 1 << 50 // past every MinScanPS gate
		moved += int64(e.StepBarrier(&cur, m.PT, now, false).Moved)
	})
	r.set("kmig.step_barrier_us", ns/1e3)
	r.set("kmig.step_barrier.ops", float64(ops))
	r.set("kmig.migrations", float64(moved))
	return nil
}

// layerOmp drives a 16-thread team: empty parallel regions (fork, join
// barrier, settlement) and barriers inside one region.
func (r *run) layerOmp(_ *rand.Rand) error {
	m := classWMachine(vm.FirstTouch, r.seed)
	team, err := omp.NewTeam(m, 16)
	if err != nil {
		return err
	}
	ns, ops := batches(layerBudget, 1, func() { team.Parallel(func(tr *omp.Thread) {}) })
	r.set("omp.region_fork_join_us", ns/1e3)
	r.set("omp.region_fork_join.ops", float64(ops))
	const perRegion = 64
	ns, ops = batches(layerBudget, perRegion, func() {
		team.Parallel(func(tr *omp.Thread) {
			for k := 0; k < perRegion; k++ {
				tr.Barrier()
			}
		})
	})
	r.set("omp.barrier_us", ns/1e3)
	r.set("omp.barrier.ops", float64(ops))
	return nil
}

// layerUPM drives UPMlib on 512 hot pages: MigrateMemory after seeded
// remote-heavy counters, and record–replay between two phases whose
// dominant nodes differ.
func (r *run) layerUPM(rng *rand.Rand) error {
	m := classWMachine(vm.WorstCase, r.seed)
	const npages = 512
	a := m.NewArray("hot", npages*m.PageBytes()/8)
	lo, hi := a.PageRange()
	for vpn := lo; vpn < hi; vpn++ {
		m.PT.Resolve(vpn, 0)
	}
	c := m.CPU(0)
	u := upm.Init(m, upm.Options{FreezeBounces: 1 << 30})
	u.MemRefCnt(lo, hi)
	load := func(node func(vpn uint64) int) {
		for vpn := lo; vpn < hi; vpn++ {
			m.PT.CountMissN(vpn, node(vpn), 32)
		}
	}
	ns, ops := each(layerBudget, func() {
		u.Reactivate()
		shift := rng.IntN(m.PT.Nodes())
		load(func(vpn uint64) int { return (int(vpn) + shift) % m.PT.Nodes() })
	}, func() { sink += uint64(u.MigrateMemory(c)) })
	r.set("upm.migrate_memory_us", ns/1e3)
	r.set("upm.migrate_memory.ops", float64(ops))

	u = upm.Init(m, upm.Options{})
	u.MemRefCnt(lo, hi)
	u.Record(c)
	load(func(vpn uint64) int { return int(vpn) % m.PT.Nodes() })
	u.Record(c)
	load(func(vpn uint64) int { return (int(vpn) + 3) % m.PT.Nodes() })
	u.Record(c)
	u.CompareCounters(c)
	if u.Plans() == 0 {
		return fmt.Errorf("upm layer: record-replay produced no plans")
	}
	var replay, undo []float64
	end := time.Now().Add(layerBudget)
	for len(replay) < 5 || time.Now().Before(end) {
		t0 := time.Now()
		sink += uint64(u.Replay(c))
		t1 := time.Now()
		sink += uint64(u.Undo(c))
		replay = append(replay, float64(t1.Sub(t0)))
		undo = append(undo, float64(time.Since(t1)))
	}
	r.set("upm.replay_us", median(replay)/1e3)
	r.set("upm.replay.ops", float64(len(replay)))
	r.set("upm.undo_us", median(undo)/1e3)
	r.set("upm.undo.ops", float64(len(undo)))
	return nil
}

// layerNAS times one Class W Step per kernel on a 16-thread team after
// the cold-start iteration: in free-run mode (numerics only) and charged
// (numerics plus the memory system).
func (r *run) layerNAS(_ *rand.Rand) error {
	for _, name := range layerBenches {
		build, ok := exp.Builder(name)
		if !ok {
			return fmt.Errorf("no builder for %s", name)
		}
		m := classWMachine(vm.FirstTouch, r.seed)
		k := build(m, nas.ClassW, 1, r.seed)
		team, err := omp.NewTeam(m, 16)
		if err != nil {
			return err
		}
		k.InitTouch(team)
		k.Step(team, nil)
		step := func(free bool) ([]float64, int) {
			m.SetFreeRun(free)
			defer m.SetFreeRun(false)
			var ms []float64
			end := time.Now().Add(2 * layerBudget)
			for len(ms) < 3 || time.Now().Before(end) {
				t0 := time.Now()
				k.Step(team, nil)
				ms = append(ms, float64(time.Since(t0))/1e6)
			}
			return ms, len(ms)
		}
		free, nf := step(true)
		charged, nc := step(false)
		r.set("nas."+name+".step_free_ms", median(free))
		r.set("nas."+name+".step_charged_ms", median(charged))
		r.set("nas."+name+".steps", float64(nf+nc))
	}
	return nil
}

// layerExp times memoized recall through exp.Runner and exp.Cache: one
// Class S Figure 1 column simulated once, then recalled whole.
func (r *run) layerExp(_ *rand.Rand) error {
	specs := exp.Figure1Specs(exp.SweepOptions{Class: nas.ClassS, Benches: []string{"FT"}, Seed: r.seed, Threads: 1})
	runner := exp.Runner{Jobs: 1, Cache: exp.NewCache()}
	ctx := context.Background()
	if _, err := runner.Cells(ctx, specs); err != nil {
		return err
	}
	var err error
	ns, ops := batches(layerBudget, len(specs), func() {
		if _, e := runner.Cells(ctx, specs); e != nil {
			err = e
		}
	})
	r.set("exp.cache_recall_us", ns/1e3)
	r.set("exp.cache_recall.ops", float64(ops))
	return err
}

// layerStore times Put, Get and ReadRecord of a real Class S result
// under fresh seeded keys in a scratch store.
func (r *run) layerStore(rng *rand.Rand) error {
	build, _ := exp.Builder("BT")
	res, err := nas.Run(build, nas.Config{Class: nas.ClassS, Seed: r.seed, Threads: 1})
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(r.work, "layer-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	var keys []string
	nsPut, ops := each(layerBudget, func() {
		keys = append(keys, fmt.Sprintf("BT\x00bench key %d", rng.Uint64()))
	}, func() {
		if e := st.Put(keys[len(keys)-1], "BT", res); e != nil {
			err = e
		}
	})
	if err != nil {
		return err
	}
	i := 0
	nsGet, nGet := each(layerBudget, func() {}, func() {
		if _, e := st.Get(keys[i%len(keys)]); e != nil {
			err = e
		}
		i++
	})
	var blob []byte
	nsRead, nRead := each(layerBudget, func() {}, func() {
		b, e := st.ReadRecord(store.Address(keys[i%len(keys)]))
		if e != nil {
			err = e
		}
		blob = b
		i++
	})
	if err != nil {
		return err
	}
	r.set("store.put_us", nsPut/1e3)
	r.set("store.get_us", nsGet/1e3)
	r.set("store.read_record_us", nsRead/1e3)
	r.set("store.ops", float64(ops+nGet+nRead))
	r.set("store.record_bytes", float64(len(blob)))
	return nil
}
