package nas_test

import (
	"fmt"
	"reflect"
	"testing"

	"upmgo/internal/kmig"
	"upmgo/internal/machine"
	"upmgo/internal/metrics"
	"upmgo/internal/nas"
	"upmgo/internal/nas/bt"
	"upmgo/internal/nas/cg"
	"upmgo/internal/nas/ft"
	"upmgo/internal/nas/mg"
	"upmgo/internal/nas/sp"
	"upmgo/internal/omp"
	"upmgo/internal/trace"
	"upmgo/internal/vm"
)

// maskSteady zeroes the detection-metadata fields extrapolation is
// allowed to set, plus the host-side FastPath report (which records the
// run's host path, not its physics); every other Result field must be
// bit-identical between an extrapolated and a fully simulated run.
func maskSteady(r nas.Result) nas.Result {
	r.SteadyAt = 0
	r.SteadyPeriod = 0
	r.ExtrapolatedIters = 0
	r.FastPath = nas.FastPath{}
	return r
}

// TestSteadyExtrapolationBitIdentity is the golden contract of the
// steady-state fast-forward: for every benchmark, placement and engine,
// a run that detects the steady state and extrapolates the tail must
// report exactly the virtual times, per-iteration spans, hardware
// counters, engine statistics and verification outcome of the run that
// simulates every iteration. Threads=1 keeps the interleaving
// deterministic so the comparison is exact.
func TestSteadyExtrapolationBitIdentity(t *testing.T) {
	builders := []struct {
		name  string
		build nas.Builder
	}{
		{"BT", bt.New}, {"SP", sp.New}, {"CG", cg.New},
		{"MG", mg.New}, {"FT", ft.New},
	}
	engines := []struct {
		name     string
		phaseful bool // requires a phase change (record–replay)
		set      func(c *nas.Config)
	}{
		{"plain", false, func(c *nas.Config) {}},
		{"kmig", false, func(c *nas.Config) { c.KernelMig = true }},
		{"upmlib", false, func(c *nas.Config) { c.UPM = nas.UPMDistribute }},
		{"recrep", true, func(c *nas.Config) { c.UPM = nas.UPMRecRep }},
	}
	hasPhase := map[string]bool{"BT": true, "SP": true}
	for _, b := range builders {
		for _, p := range []vm.Policy{vm.FirstTouch, vm.WorstCase} {
			t.Run(b.name+"/"+p.String(), func(t *testing.T) {
				for _, eng := range engines {
					if eng.phaseful && !hasPhase[b.name] {
						continue
					}
					cfg := nas.Config{Class: nas.ClassS, Placement: p, Threads: 1, Iterations: 12}
					eng.set(&cfg)
					plain, err := nas.Run(b.build, cfg)
					if err != nil {
						t.Fatalf("%s plain: %v", eng.name, err)
					}
					scfg := cfg
					scfg.SteadyState = true
					steady, err := nas.Run(b.build, scfg)
					if err != nil {
						t.Fatalf("%s steady: %v", eng.name, err)
					}
					if !reflect.DeepEqual(plain, maskSteady(steady)) {
						t.Errorf("%s: extrapolated run diverges from simulated:\n plain  %+v\n steady %+v",
							eng.name, plain, steady)
					}
					// The solvers with deactivating or quiescent engines
					// must actually reach steady state well before the
					// end. Two cells are legitimately exempt: record–
					// replay keeps moving pages every iteration (its
					// orbit can exceed the window at this tiny class),
					// and FT under the kernel engine — kmig's time-spaced
					// scans beat aperiodically against FT's short Class S
					// iterations, so its counter rows never freeze and
					// the conservative detector rightly refuses.
					exempt := eng.phaseful || (b.name == "FT" && eng.name == "kmig")
					if steady.SteadyAt == 0 && !exempt {
						t.Errorf("%s: steady state never detected in %d iterations", eng.name, len(steady.IterPS))
					}
					if steady.SteadyAt != 0 && steady.ExtrapolatedIters != len(plain.IterPS)-steady.SteadyAt {
						t.Errorf("%s: extrapolated %d iters, want %d (steady at %d of %d)",
							eng.name, steady.ExtrapolatedIters, len(plain.IterPS)-steady.SteadyAt,
							steady.SteadyAt, len(plain.IterPS))
					}
				}
			})
		}
	}
}

// TestSteadyRespectsPerturbation: the detector must not extrapolate
// across the scheduler perturbation — observation starts after it, so a
// detected steady state always lies beyond PerturbAt and the perturbed
// run's result stays bit-identical to its fully simulated twin.
func TestSteadyRespectsPerturbation(t *testing.T) {
	cfg := nas.Config{Class: nas.ClassS, Placement: vm.FirstTouch, Threads: 1,
		Iterations: 14, PerturbAt: 4, UPM: nas.UPMDistribute}
	plain, err := nas.Run(bt.New, cfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg := cfg
	scfg.SteadyState = true
	steady, err := nas.Run(bt.New, scfg)
	if err != nil {
		t.Fatal(err)
	}
	if steady.SteadyAt != 0 && steady.SteadyAt <= cfg.PerturbAt {
		t.Fatalf("steady state claimed at iteration %d, before the perturbation at %d",
			steady.SteadyAt, cfg.PerturbAt)
	}
	if steady.SteadyAt == 0 {
		t.Fatal("steady state never detected after the perturbation")
	}
	if !reflect.DeepEqual(plain, maskSteady(steady)) {
		t.Errorf("perturbed extrapolation diverges:\n plain  %+v\n steady %+v", plain, steady)
	}
}

// TestSteadyDisabledBySampler: a metrics sampler needs every iteration
// simulated, so it switches the detector off entirely.
func TestSteadyDisabledBySampler(t *testing.T) {
	s := metrics.NewSampler(metrics.Options{})
	cfg := nas.Config{Class: nas.ClassS, Placement: vm.FirstTouch, Threads: 1,
		Iterations: 10, Metrics: s, SteadyState: true}
	res, err := nas.Run(sp.New, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SteadyAt != 0 || res.ExtrapolatedIters != 0 {
		t.Fatalf("sampled run used the detector: steadyAt=%d extrapolated=%d",
			res.SteadyAt, res.ExtrapolatedIters)
	}
}

// TestSteadyTraceSummary: an extrapolated run's trace carries the
// steady_state and extrapolate events, and the summary's sum contract
// extends across the extrapolated tail — TotalPS tiles into phases,
// serial time and the extrapolated span exactly.
func TestSteadyTraceSummary(t *testing.T) {
	rec := trace.NewRecorder()
	cfg := nas.Config{Class: nas.ClassS, Placement: vm.FirstTouch, Threads: 1,
		Iterations: 12, Tracer: rec, SteadyState: true}
	res, err := nas.Run(bt.New, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExtrapolatedIters == 0 {
		t.Fatal("run did not extrapolate; trace contract untestable")
	}
	var sawSteady, sawExtrap bool
	for _, ev := range rec.Events() {
		switch ev.Kind {
		case trace.EvSteadyState:
			sawSteady = true
			if ev.Arg0 != int64(res.SteadyAt) {
				t.Errorf("steady_state event at iteration %d, result says %d", ev.Arg0, res.SteadyAt)
			}
		case trace.EvExtrapolate:
			sawExtrap = true
			if ev.Arg0 != int64(res.ExtrapolatedIters) {
				t.Errorf("extrapolate event covers %d iters, result says %d", ev.Arg0, res.ExtrapolatedIters)
			}
		}
	}
	if !sawSteady || !sawExtrap {
		t.Fatalf("missing events: steady_state=%v extrapolate=%v", sawSteady, sawExtrap)
	}
	s := trace.Summarize(rec.Events())
	if s.ExtrapolatedIters != res.ExtrapolatedIters {
		t.Errorf("summary extrapolated %d iters, result %d", s.ExtrapolatedIters, res.ExtrapolatedIters)
	}
	var phasePS int64
	for _, p := range s.Phases {
		phasePS += p.TimePS
	}
	if got := phasePS + s.SerialPS + s.ExtrapolatedPS; got != s.TotalPS {
		t.Errorf("sum contract broken: phases %d + serial %d + extrapolated %d = %d != total %d",
			phasePS, s.SerialPS, s.ExtrapolatedPS, got, s.TotalPS)
	}
	var iterPS int64
	for _, it := range s.PerIter {
		iterPS += it.TimePS
	}
	if got := iterPS + s.ExtrapolatedPS; got != s.TotalPS {
		t.Errorf("per-iter contract broken: iters %d + extrapolated %d = %d != total %d",
			iterPS, s.ExtrapolatedPS, got, s.TotalPS)
	}
	if s.TotalPS != res.TotalPS {
		t.Errorf("summary total %d != result total %d", s.TotalPS, res.TotalPS)
	}
	if s.Iterations != res.SteadyAt {
		t.Errorf("summary simulated %d iterations, expected %d (steady point)", s.Iterations, res.SteadyAt)
	}
}

// TestSteadyForkBitIdentity: extrapolation composes with the snapshot
// subsystem — a forked steady run equals a from-scratch steady run.
func TestSteadyForkBitIdentity(t *testing.T) {
	base := nas.Config{Class: nas.ClassS, Placement: vm.FirstTouch, Threads: 1, Iterations: 12}
	prefix, err := nas.RunPrefix(cg.New, base)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.SteadyState = true
	cfg.KernelMig = true
	scratch, err := nas.Run(cg.New, cfg)
	if err != nil {
		t.Fatal(err)
	}
	forked, err := prefix.RunFromSnapshot(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scratch, forked) {
		t.Errorf("steady fork diverges from scratch:\n scratch %+v\n fork    %+v", scratch, forked)
	}
}

// TestSteadyTailCache: runs that share a numeric trajectory share one
// verification — an extrapolating run that finds its trajectory already
// verified skips the free-run tail yet reports a Result bit-identical to
// the fully simulated run of its own engine. Placement and engine
// variants land on one cache entry; a different seed gets its own.
func TestSteadyTailCache(t *testing.T) {
	vc := nas.NewVerifyCache()
	base := nas.Config{Class: nas.ClassS, Placement: vm.FirstTouch, Threads: 1,
		Iterations: 12, SteadyState: true, TailCache: vc}
	engines := []func(c *nas.Config){
		func(c *nas.Config) {},
		func(c *nas.Config) { c.KernelMig = true },
		func(c *nas.Config) { c.UPM = nas.UPMDistribute; c.Placement = vm.WorstCase },
	}
	for i, set := range engines {
		cfg := base
		set(&cfg)
		cached, err := nas.Run(sp.New, cfg)
		if err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
		plain := cfg
		plain.SteadyState, plain.TailCache = false, nil
		want, err := nas.Run(sp.New, plain)
		if err != nil {
			t.Fatalf("engine %d plain: %v", i, err)
		}
		if !reflect.DeepEqual(want, maskSteady(cached)) {
			t.Errorf("engine %d: tail-cached run diverges from simulated:\n plain  %+v\n cached %+v",
				i, want, cached)
		}
		if !cached.Verified {
			t.Errorf("engine %d: tail-cached run not verified", i)
		}
	}
	if vc.Len() != 1 {
		t.Errorf("engine variants filled %d cache entries, want 1 shared trajectory", vc.Len())
	}
	other := base
	other.Seed = 7
	if _, err := nas.Run(sp.New, other); err != nil {
		t.Fatal(err)
	}
	if vc.Len() != 2 {
		t.Errorf("distinct seed reused the trajectory entry: %d entries, want 2", vc.Len())
	}
}

// TestSteadySkipVerifyTail: with SkipVerify nothing ever observes the
// kernel's final numerics, so an extrapolating run drops the free-run
// tail outright — and still matches the fully simulated run bit for bit.
func TestSteadySkipVerifyTail(t *testing.T) {
	cfg := nas.Config{Class: nas.ClassS, Placement: vm.FirstTouch, Threads: 1,
		Iterations: 12, SkipVerify: true}
	plain, err := nas.Run(bt.New, cfg)
	if err != nil {
		t.Fatal(err)
	}
	scfg := cfg
	scfg.SteadyState = true
	steady, err := nas.Run(bt.New, scfg)
	if err != nil {
		t.Fatal(err)
	}
	if steady.SteadyAt == 0 || steady.ExtrapolatedIters == 0 {
		t.Fatalf("run did not extrapolate: %+v", steady)
	}
	if !reflect.DeepEqual(plain, maskSteady(steady)) {
		t.Errorf("skip-verify extrapolation diverges:\n plain  %+v\n steady %+v", plain, steady)
	}
}

// TestSteadyFingerprintCanonicalisation: a steady and a plain run
// (whose SteadyAt fields differ) never share a cache entry, while
// attaching a tail cache — bit-identical by construction — never
// partitions the key space.
func TestSteadyFingerprintCanonicalisation(t *testing.T) {
	base := nas.Config{Class: nas.ClassS, Placement: vm.FirstTouch}
	fplain, ok := base.Fingerprint()
	if !ok {
		t.Fatal("fingerprint failed")
	}
	a := base
	a.SteadyState = true
	fsteady, _ := a.Fingerprint()
	if fsteady == fplain {
		t.Error("steady and plain configs share a fingerprint; SteadyAt would go stale in the cache")
	}
	d := base
	d.TailCache = nas.NewVerifyCache()
	fd, _ := d.Fingerprint()
	if fd != fplain {
		t.Errorf("attaching a tail cache changed the fingerprint:\n %q\n %q", fd, fplain)
	}
}

// synthKernel satisfies nas.Kernel: a purpose-built kernel for the
// regimes the NAS kernels cannot reach at test scale. Each Step reads the
// hot array (512 bytes, L1-resident after the cold start) and charges a
// compute-time modulation of period workPeriod whose iterations all
// differ, so the reference string is a genuine period-workPeriod orbit.
// At the first timed step it seeds the dead pages' reference-counter
// rows from node 1, staging a kernel-migration campaign the engine then
// works through at MaxPerScan pages per scan.
type synthKernel struct {
	m          *machine.Machine
	hot, dead  *machine.Array
	workPeriod int
	steps      int
	timed      bool // set by Reinit: the prefix's cold start is over
	seeded     bool
}

// synthBuilder returns a nas.Builder for a synthetic kernel with the given
// number of dead campaign pages and compute-modulation period (0 = uniform
// compute).
func synthBuilder(deadPages, workPeriod int) nas.Builder {
	return func(m *machine.Machine, class nas.Class, scale int, seed uint64) nas.Kernel {
		k := &synthKernel{m: m, workPeriod: workPeriod}
		k.hot = m.NewArray("hot", 64)
		if deadPages > 0 {
			k.dead = m.NewArray("dead", deadPages*m.PageBytes()/8)
		}
		return k
	}
}

func (k *synthKernel) Name() string           { return "SYNTH" }
func (k *synthKernel) DefaultIterations() int { return 8 }
func (k *synthKernel) HasPhase() bool         { return false }

func (k *synthKernel) HotPages() [][2]uint64 {
	lo, hi := k.hot.PageRange()
	return [][2]uint64{{lo, hi}}
}

func (k *synthKernel) InitTouch(t *omp.Team) {
	t.ParallelNamed("init", func(tr *omp.Thread) {
		tr.For(0, 1, omp.Static(), func(c *machine.CPU, from, to int) {
			for i := range k.hot.MutRun(c, 0, k.hot.Len()) {
				_ = i
			}
			if k.dead != nil {
				// Home the dead pages on the toucher's node; they are never
				// accessed again, so their rows change only by seeding.
				for base := 0; base < k.dead.Len(); base += k.m.PageBytes() / 8 {
					k.dead.MutRun(c, base, 1)
				}
			}
		})
	})
}

func (k *synthKernel) Reinit() { k.steps = 0; k.timed = true }

func (k *synthKernel) Step(t *omp.Team, h *nas.Hooks) {
	k.steps++
	if k.timed && !k.seeded && k.dead != nil {
		// Stage the campaign: every dead page looks heavily referenced from
		// node 1. Host-side seeding, not simulated accesses.
		lo, hi := k.dead.PageRange()
		for vpn := lo; vpn < hi; vpn++ {
			k.m.PT.CountMissN(vpn, 1, 255)
		}
		k.seeded = true
	}
	extra := 0
	if k.workPeriod > 1 {
		extra = 5000 * (k.steps % k.workPeriod)
	}
	t.ParallelNamed("work", func(tr *omp.Thread) {
		tr.For(0, 1, omp.Static(), func(c *machine.CPU, from, to int) {
			for pass := 0; pass < 4; pass++ {
				k.hot.GetRun(c, 0, k.hot.Len())
			}
			c.Flops(100 + extra)
		})
	})
}

func (k *synthKernel) Verify() error {
	if k.steps == 0 {
		return fmt.Errorf("synth: no steps executed")
	}
	return nil
}

// runPair runs the same cell fully simulated and with the steady-state
// machinery on, and requires the results to be bit-identical outside the
// detection metadata.
func runPair(t *testing.T, build nas.Builder, cfg nas.Config) (plain, steady nas.Result) {
	t.Helper()
	plain, err := nas.Run(build, cfg)
	if err != nil {
		t.Fatalf("plain: %v", err)
	}
	scfg := cfg
	scfg.SteadyState = true
	steady, err = nas.Run(build, scfg)
	if err != nil {
		t.Fatalf("steady: %v", err)
	}
	if !reflect.DeepEqual(plain, maskSteady(steady)) {
		t.Errorf("steady run diverges from simulated:\n plain  %+v\n steady %+v", plain, steady)
	}
	return plain, steady
}

// TestSteadyPeriodKCompute: a kernel whose compute time cycles with period
// 3 settles on a genuine period-3 orbit: the detector proves it, reports
// it, and extrapolates bit-identically.
func TestSteadyPeriodKCompute(t *testing.T) {
	cfg := nas.Config{Class: nas.ClassS, Placement: vm.FirstTouch, Threads: 1, Iterations: 24}
	_, steady := runPair(t, synthBuilder(0, 3), cfg)
	if steady.SteadyAt == 0 {
		t.Fatalf("period-3 orbit never detected: %+v", steady)
	}
	if steady.SteadyPeriod != 3 {
		t.Errorf("detected period %d, want 3", steady.SteadyPeriod)
	}
}

// TestSteadyPeriod9Adversary: a period-9 reference string whose nine
// iterations all differ exceeds the detector's cap (8): no orbit is ever
// proven and the run falls back to full simulation, bit-identically.
func TestSteadyPeriod9Adversary(t *testing.T) {
	cfg := nas.Config{Class: nas.ClassS, Placement: vm.FirstTouch, Threads: 1, Iterations: 30}
	_, steady := runPair(t, synthBuilder(0, 9), cfg)
	if steady.SteadyAt != 0 {
		t.Errorf("period-9 stream fired the detector at iteration %d (period %d)",
			steady.SteadyAt, steady.SteadyPeriod)
	}
	if steady.ExtrapolatedIters != 0 {
		t.Errorf("period-9 stream extrapolated %d iterations", steady.ExtrapolatedIters)
	}
}

// TestSteadyPeriod9EngineAdversary: the engine-side period-9 string. With
// three barriers per iteration and ScanEvery=27, scans land every ninth
// iteration; between scans the counter deltas are identical, so without
// the gate-phase hash the period-one rule would fire mid-cycle and
// extrapolate the engine's counters wrongly. The phase folded into the
// state hash makes every iteration of the 9-cycle distinct: the detector
// refuses at every k ≤ 8 and the run falls back to full simulation.
func TestSteadyPeriod9EngineAdversary(t *testing.T) {
	cfg := nas.Config{
		Class: nas.ClassS, Placement: vm.FirstTouch, Threads: 1,
		Iterations: 30, KernelMig: true,
		Kmig: kmig.Config{ScanEvery: 27, DecayEvery: -1, MinScanPS: -1},
	}
	_, steady := runPair(t, synthBuilder(0, 0), cfg)
	if steady.SteadyAt != 0 {
		t.Errorf("engine period-9 cadence fired the detector at iteration %d (period %d)",
			steady.SteadyAt, steady.SteadyPeriod)
	}
}

// TestSteadyPeriodKEngineCadence: kmig's ScanEvery gate makes the engine
// itself the source of the orbit — with one barrier per iteration and
// ScanEvery=2, scan activity alternates and the quiesced cell settles on
// a genuine period-2 orbit.
func TestSteadyPeriodKEngineCadence(t *testing.T) {
	cfg := nas.Config{
		Class: nas.ClassS, Placement: vm.FirstTouch, Threads: 1,
		Iterations: 24, KernelMig: true,
		Kmig: kmig.Config{ScanEvery: 2, DecayEvery: -1, MinScanPS: -1},
	}
	_, steady := runPair(t, synthBuilder(0, 0), cfg)
	if steady.SteadyAt == 0 {
		t.Fatalf("engine-cadence orbit never detected: %+v", steady)
	}
	if steady.SteadyPeriod != 2 {
		t.Errorf("detected period %d, want 2 (ScanEvery=2, one barrier per iteration)", steady.SteadyPeriod)
	}
}
