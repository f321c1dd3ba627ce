package nas_test

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"upmgo/internal/machine"
	"upmgo/internal/nas"
	"upmgo/internal/nas/bt"
	"upmgo/internal/nas/cg"
	"upmgo/internal/nas/ep"
	"upmgo/internal/nas/ft"
	"upmgo/internal/nas/is"
	"upmgo/internal/nas/lu"
	"upmgo/internal/nas/mg"
	"upmgo/internal/nas/sp"
	"upmgo/internal/omp"
	"upmgo/internal/vm"
)

var paperKernels = []struct {
	name  string
	build nas.Builder
	phase bool
}{
	{"BT", bt.New, true}, {"SP", sp.New, true}, {"CG", cg.New, false},
	{"MG", mg.New, false}, {"FT", ft.New, false},
}

// replayEqualsDirect runs cfg through the kernel's own Step
// (nas.RunDirect) and through a recorded program twice — recorded on
// the run's own machine (nas.Run) and on a blank one, replayed on a
// fork (Prefix.RunFromSnapshot) — and requires bit-identical Results.
func replayEqualsDirect(t *testing.T, build nas.Builder, cfg nas.Config) nas.Result {
	t.Helper()
	want, err := nas.RunDirect(build, cfg)
	if err != nil {
		t.Fatalf("direct: %v", err)
	}
	got, err := nas.Run(build, cfg)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("replay diverges from the direct Step loop:\n direct %+v\n replay %+v", want, got)
	}
	p, err := nas.RunPrefix(build, cfg)
	if err != nil {
		t.Fatal(err)
	}
	forked, err := p.RunFromSnapshot(cfg)
	if err != nil {
		t.Fatalf("forked replay: %v", err)
	}
	if !reflect.DeepEqual(want, forked) {
		t.Errorf("forked replay diverges from the direct Step loop:\n direct %+v\n forked %+v", want, forked)
	}
	return got
}

// TestReplayBitIdentity is the contract of recording and replay: a timed
// loop that replays the recorded access program reproduces the loop
// that executes the kernel's Step exactly — every virtual time, span,
// counter, engine statistic and the verdict — for the five paper
// kernels under all four engine configurations of the paper's figures.
func TestReplayBitIdentity(t *testing.T) {
	engines := []struct {
		name string
		set  func(c *nas.Config)
	}{
		{"IRIX", func(c *nas.Config) {}},
		{"IRIXmig", func(c *nas.Config) { c.KernelMig = true }},
		{"upmlib", func(c *nas.Config) { c.UPM = nas.UPMDistribute }},
		{"recrep", func(c *nas.Config) { c.UPM = nas.UPMRecRep }},
	}
	for _, k := range paperKernels {
		for _, e := range engines {
			if e.name == "recrep" && !k.phase {
				continue
			}
			t.Run(k.name+"/"+e.name, func(t *testing.T) {
				cfg := nas.Config{Class: nas.ClassS, Placement: vm.WorstCase, Threads: 1}
				e.set(&cfg)
				if res := replayEqualsDirect(t, k.build, cfg); !res.Verified {
					t.Errorf("replayed run not verified: %v", res.VerifyErr)
				}
			})
		}
	}
}

// TestReplayPerturbAndScale: a mid-run binding rotation (the replayed
// members follow their threads onto the new CPUs) and a synthetically
// scaled kernel (the program holds every repeated body) replay exactly.
func TestReplayPerturbAndScale(t *testing.T) {
	replayEqualsDirect(t, bt.New, nas.Config{Class: nas.ClassS, Placement: vm.FirstTouch,
		Threads: 1, UPM: nas.UPMDistribute, PerturbAt: 2})
	replayEqualsDirect(t, bt.New, nas.Config{Class: nas.ClassS, Placement: vm.FirstTouch,
		Threads: 1, KernelMig: true, ComputeScale: 4, SkipVerify: true})
}

// TestReplayStepVaryingKernels: kernels whose calls change from step to
// step — EP's and IS's data-driven streams and the synthetic kernel's
// staged first step and period-3 compute — replay exactly, and their
// programs keep one step table per distinct step while every paper
// kernel's steps share one.
func TestReplayStepVaryingKernels(t *testing.T) {
	cfg := nas.Config{Class: nas.ClassS, Placement: vm.FirstTouch, Threads: 1}
	for _, b := range []struct {
		name  string
		build nas.Builder
		cfg   nas.Config
	}{
		{"EP", ep.New, cfg},
		{"IS", is.New, cfg},
		{"SYNTH", synthBuilder(64, 3), nas.Config{Class: nas.ClassS, Placement: vm.FirstTouch,
			Threads: 1, Iterations: 9, KernelMig: true}},
	} {
		t.Run(b.name, func(t *testing.T) {
			replayEqualsDirect(t, b.build, b.cfg)
			if _, distinct := programShape(t, b.build, b.cfg); distinct < 2 {
				t.Errorf("%s program keeps %d step tables, want one per distinct step", b.name, distinct)
			}
		})
	}
	for _, k := range paperKernels {
		if steps, distinct := programShape(t, k.build, nas.Config{Class: nas.ClassS, Threads: 2}); distinct != 1 {
			t.Errorf("%s: %d steps stored as %d tables, want 1 (every step issues step 1's calls)", k.name, steps, distinct)
		}
	}
}

func programShape(t *testing.T, build nas.Builder, cfg nas.Config) (steps, distinct int) {
	t.Helper()
	p, err := nas.RunPrefix(build, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p.Record(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps, distinct, raw, ops := nas.ProgramShape(prog)
	if ops > raw || prog.Bytes() < int64(ops)*16 {
		t.Errorf("interned %d ops of %d raw in %d bytes", ops, raw, prog.Bytes())
	}
	return steps, distinct
}

// TestReplayFullWidthWithinBand: at the paper's full team width the
// coherence races resolve in host order on both paths, so replay and
// the direct loop agree statistically: the medians of five runs each
// lie within 0.1% of virtual time. (Single pairs of Class S CG runs
// differ by up to 0.11% on either path alone.)
func TestReplayFullWidthWithinBand(t *testing.T) {
	const runs = 5
	for _, k := range paperKernels {
		cfg := nas.Config{Class: nas.ClassS, Placement: vm.RoundRobin, Threads: 8, KernelMig: true}
		var direct, replayed []float64
		for i := 0; i < runs; i++ {
			want, err := nas.RunDirect(k.build, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := nas.Run(k.build, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Verified || got.Mach.Accesses != want.Mach.Accesses {
				t.Errorf("%s: verified %v, accesses %d vs direct %d", k.name, got.Verified, got.Mach.Accesses, want.Mach.Accesses)
			}
			direct, replayed = append(direct, want.Seconds()), append(replayed, got.Seconds())
		}
		sort.Float64s(direct)
		sort.Float64s(replayed)
		if d := math.Abs(replayed[runs/2]/direct[runs/2] - 1); d > 1e-3 {
			t.Errorf("%s: replay median %.6fs vs direct %.6fs (%.3f%% apart)", k.name, replayed[runs/2], direct[runs/2], 100*d)
		}
	}
}

// eventKernel hands a clock from member 0 to member 1 through an omp
// EventSet each step: member 0 computes for a step-dependent time and
// posts, member 1 waits and computes briefly. It touches no memory, so
// its virtual times are exact at any width.
type eventKernel struct {
	ev    *omp.EventSet
	steps int
}

func (k *eventKernel) Name() string           { return "EVENT" }
func (k *eventKernel) DefaultIterations() int { return 4 }
func (k *eventKernel) HasPhase() bool         { return false }
func (k *eventKernel) HotPages() [][2]uint64  { return nil }
func (k *eventKernel) Reinit()                { k.steps = 0 }
func (k *eventKernel) Verify() error          { return nil }
func (k *eventKernel) InitTouch(t *omp.Team)  {}
func (k *eventKernel) Step(t *omp.Team, _ *nas.Hooks) {
	if k.ev == nil {
		k.ev = omp.NewEventSet(t, 1)
	}
	k.steps++
	work := int64(1000000 * (1 + k.steps%3))
	t.Parallel(func(tr *omp.Thread) {
		switch tr.ID {
		case 0:
			tr.CPU.Advance(work)
			k.ev.Post(tr, 0)
		case 1:
			k.ev.Wait(tr, 0, 0)
			tr.CPU.Advance(1000)
		}
		tr.Barrier()
		if tr.ID == 0 {
			k.ev.Reset()
		}
	})
}

// TestReplayEventSets: omp EventSet posts, waits and resets hand clocks
// from one member to another, so the program records them as the calls
// themselves. Replay reproduces the direct loop exactly for a two-member
// hand-off (dropping the recorded waits would lose it) and for LU's
// pipelined wavefront at one thread.
func TestReplayEventSets(t *testing.T) {
	build := func(*machine.Machine, nas.Class, int, uint64) nas.Kernel { return &eventKernel{} }
	res := replayEqualsDirect(t, build, nas.Config{Class: nas.ClassS, Threads: 2})
	if res.IterPS[0] == res.IterPS[1] {
		t.Errorf("member 0's step-dependent work did not reach the step time: %v", res.IterPS)
	}
	replayEqualsDirect(t, lu.New, nas.Config{Class: nas.ClassS, Placement: vm.FirstTouch,
		Threads: 1, UPM: nas.UPMDistribute})
}

// TestReplayRejectsForeignProgram: a program recorded for one numeric
// key is refused by a run with another, on a fork and from scratch.
func TestReplayRejectsForeignProgram(t *testing.T) {
	base := nas.Config{Class: nas.ClassS, Threads: 1, Iterations: 3}
	p, err := nas.RunPrefix(cg.New, base)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p.Record(base)
	if err != nil {
		t.Fatal(err)
	}
	other := base
	other.Iterations = 4
	if _, err := p.Replay(other, prog); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Errorf("replaying a 3-step program for a 4-step run: %v", err)
	}
	foreign := func(string, func() (*nas.Program, error)) (*nas.Program, error) { return prog, nil }
	if _, err := nas.RunShared(cg.New, other, foreign); err == nil || !strings.Contains(err.Error(), "does not match") {
		t.Errorf("a shared 3-step program handed to a 4-step run: %v", err)
	}
	if res, err := nas.RunShared(cg.New, base, foreign); err != nil || !res.Verified {
		t.Errorf("a shared program of the run's own key: %v (verified %v)", err, res.Verified)
	}
	if nas.ProgramKey(prog) != p.ProgramKey(base) || p.ProgramKey(base) == p.ProgramKey(other) {
		t.Errorf("program keys: %q, %q, %q", nas.ProgramKey(prog), p.ProgramKey(base), p.ProgramKey(other))
	}
}

// criticalKernel enters an omp Critical section, whose clock hand-off
// no program can replay.
type criticalKernel struct{ a *machine.Array }

func (k *criticalKernel) Name() string           { return "CRIT" }
func (k *criticalKernel) DefaultIterations() int { return 2 }
func (k *criticalKernel) HasPhase() bool         { return false }
func (k *criticalKernel) HotPages() [][2]uint64  { return nil }
func (k *criticalKernel) Reinit()                {}
func (k *criticalKernel) Verify() error          { return nil }
func (k *criticalKernel) InitTouch(t *omp.Team)  {}
func (k *criticalKernel) Step(t *omp.Team, _ *nas.Hooks) {
	t.Parallel(func(tr *omp.Thread) {
		tr.Critical("", func(c *machine.CPU) { k.a.Get(c, 0) })
	})
}

// TestRecordRefusesCritical: recording fails loudly on omp Critical
// rather than producing a program that replays the wrong clocks.
func TestRecordRefusesCritical(t *testing.T) {
	build := func(m *machine.Machine, _ nas.Class, _ int, _ uint64) nas.Kernel {
		return &criticalKernel{a: m.NewArray("a", 8)}
	}
	_, err := nas.Run(build, nas.Config{Class: nas.ClassS, Threads: 2})
	if err == nil || !strings.Contains(err.Error(), "Critical") {
		t.Errorf("recording a Critical section: err = %v, want a refusal naming Critical", err)
	}
}
