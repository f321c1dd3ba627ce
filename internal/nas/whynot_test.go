package nas_test

import (
	"testing"

	"upmgo/internal/kmig"
	"upmgo/internal/metrics"
	"upmgo/internal/nas"
	"upmgo/internal/nas/bt"
	"upmgo/internal/vm"
)

// steadyCfg is the common arming: the steady-state fast-forward on, so a
// nil WhyNot means it genuinely engaged.
func steadyCfg(iters int) nas.Config {
	return nas.Config{Class: nas.ClassS, Placement: vm.FirstTouch, Threads: 1,
		Iterations: iters, SteadyState: true}
}

func runWhy(t *testing.T, build nas.Builder, cfg nas.Config) *nas.WhyNot {
	t.Helper()
	res, err := nas.Run(build, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExtrapolatedIters > 0 {
		t.Fatalf("fast path engaged (%d extrapolated); the case should decline", res.ExtrapolatedIters)
	}
	if res.FastPath.WhyNot == nil {
		t.Fatalf("declined fast-forward carries no WhyNot: %+v", res.FastPath)
	}
	return res.FastPath.WhyNot
}

// TestWhyNotLoopTooShort: fewer than window+1 timed iterations can never
// confirm even a period-one orbit; the diagnosis must say so, typed, not
// just report non-detection.
func TestWhyNotLoopTooShort(t *testing.T) {
	w := runWhy(t, bt.New, steadyCfg(3))
	if w.Reason != nas.WhyNotLoopTooShort {
		t.Fatalf("reason = %q, want %q (%s)", w.Reason, nas.WhyNotLoopTooShort, w)
	}
	if w.Observed != 3 {
		t.Errorf("observed = %d, want 3", w.Observed)
	}
}

// TestWhyNotPerturbed: a scheduler perturbation near the end of the loop
// breaks the orbit with too few iterations left for it to re-close. The
// diagnosis must name the perturbing iteration.
func TestWhyNotPerturbed(t *testing.T) {
	cfg := steadyCfg(10)
	cfg.PerturbAt = 8
	w := runWhy(t, bt.New, cfg)
	if w.Reason != nas.WhyNotPerturbed {
		t.Fatalf("reason = %q, want %q (%s)", w.Reason, nas.WhyNotPerturbed, w)
	}
	if w.PerturbIter != 8 {
		t.Errorf("perturb iteration = %d, want 8", w.PerturbIter)
	}
}

// TestWhyNotPeriodBeyondCapAdversary: the period-9 reference string of
// TestSteadyPeriod9Adversary exceeds the detector's cap (8). The run
// simulates in full by design, and the diagnosis must identify the hidden
// period rather than calling the stream aperiodic.
func TestWhyNotPeriodBeyondCapAdversary(t *testing.T) {
	w := runWhy(t, synthBuilder(0, 9), steadyCfg(30))
	if w.Reason != nas.WhyNotPeriodBeyondCap {
		t.Fatalf("reason = %q, want %q (%s)", w.Reason, nas.WhyNotPeriodBeyondCap, w)
	}
	if w.BestPeriod != 9 {
		t.Errorf("best candidate period = %d, want 9", w.BestPeriod)
	}
}

// TestWhyNotHomesMoving: a kernel-migration campaign that outlasts the
// run keeps the page-home map in motion, so no counter orbit can close.
// The diagnosis must blame the moving homes, not the counters.
func TestWhyNotHomesMoving(t *testing.T) {
	cfg := nas.Config{
		Class: nas.ClassS, Placement: vm.FirstTouch, Threads: 1,
		Iterations: 10, KernelMig: true,
		Kmig:        kmig.Config{DecayEvery: -1, MinScanPS: -1},
		SteadyState: true,
	}
	w := runWhy(t, synthBuilder(1000, 0), cfg)
	if w.Reason != nas.WhyNotHomesMoving {
		t.Fatalf("reason = %q, want %q (%s)", w.Reason, nas.WhyNotHomesMoving, w)
	}
	if w.HomeMoves == 0 {
		t.Error("homes_moving diagnosis reports zero home moves")
	}
	if w.FirstDivergent != "page_homes" {
		t.Errorf("first divergent = %q, want page_homes", w.FirstDivergent)
	}
}

// TestWhyNotDeclinedModes: the paths where fast-forwarding was declined
// or disarmed still produce a typed reason: a run whose orbit closes on
// the final iteration, and a sampler-vetoed run.
func TestWhyNotDeclinedModes(t *testing.T) {
	// The same cell cut off exactly at its detection point leaves no tail.
	full, err := nas.Run(bt.New, steadyCfg(12))
	if err != nil {
		t.Fatal(err)
	}
	if full.SteadyAt == 0 {
		t.Fatalf("BT/12 never detected: %+v", full)
	}
	res, err := nas.Run(bt.New, steadyCfg(full.SteadyAt))
	if err != nil {
		t.Fatal(err)
	}
	if res.SteadyAt != full.SteadyAt {
		t.Fatalf("truncated run detected at %d, want %d", res.SteadyAt, full.SteadyAt)
	}
	w := res.FastPath.WhyNot
	if w == nil || w.Reason != nas.WhyNotNoTail {
		t.Fatalf("final-iteration WhyNot = %+v, want reason %q", w, nas.WhyNotNoTail)
	}
	if !res.FastPath.SteadyDetected || res.FastPath.Extrapolated {
		t.Errorf("final-iteration flags wrong: %+v", res.FastPath)
	}

	scfg := steadyCfg(12)
	scfg.Metrics = metrics.NewSampler(metrics.Options{})
	res, err = nas.Run(bt.New, scfg)
	if err != nil {
		t.Fatal(err)
	}
	w = res.FastPath.WhyNot
	if w == nil || w.Reason != nas.WhyNotSampler {
		t.Fatalf("sampler-vetoed WhyNot = %+v, want reason %q", w, nas.WhyNotSampler)
	}
}

// TestWhyNotEngagedIsNil: when the fast path engages the report carries
// flags, not excuses.
func TestWhyNotEngagedIsNil(t *testing.T) {
	res, err := nas.Run(bt.New, steadyCfg(12))
	if err != nil {
		t.Fatal(err)
	}
	if res.ExtrapolatedIters == 0 {
		t.Fatalf("BT/12 did not extrapolate: %+v", res)
	}
	fp := res.FastPath
	if !fp.SteadyDetected || !fp.Extrapolated || fp.WhyNot != nil {
		t.Errorf("engaged FastPath = %+v, want detected+extrapolated with nil WhyNot", fp)
	}
}

// TestWhyNotStrings: every reason renders a non-empty, distinct sentence
// (cmd/nasbench prints these verbatim).
func TestWhyNotStrings(t *testing.T) {
	reasons := []nas.WhyNotReason{
		nas.WhyNotSampler, nas.WhyNotNoTail,
		nas.WhyNotLoopTooShort, nas.WhyNotPerturbed, nas.WhyNotPeriodBeyondCap,
		nas.WhyNotHomesMoving, nas.WhyNotAperiodic,
	}
	seen := map[string]bool{}
	for _, r := range reasons {
		s := (&nas.WhyNot{Reason: r, BestPeriod: 2, BestStreak: 3, NeededStreak: 4,
			FirstDivergent: "cpu0_clock", Observed: 5, HomeMoves: 6, PerturbIter: 7}).String()
		if s == "" {
			t.Errorf("reason %q renders empty", r)
		}
		if seen[s] {
			t.Errorf("reason %q renders a duplicate sentence %q", r, s)
		}
		seen[s] = true
	}
	if (*nas.WhyNot)(nil).String() != "" {
		t.Error("nil WhyNot should render empty")
	}
}
