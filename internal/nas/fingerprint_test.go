package nas

import (
	"testing"

	"upmgo/internal/machine"
	"upmgo/internal/trace"
	"upmgo/internal/upm"
	"upmgo/internal/vm"
)

func TestFingerprintCanonicalisesComputeScale(t *testing.T) {
	a, ok := (Config{Class: ClassS}).Fingerprint()
	if !ok {
		t.Fatal("plain config not memoizable")
	}
	b, _ := (Config{Class: ClassS, ComputeScale: 1}).Fingerprint()
	if a != b {
		t.Errorf("ComputeScale 0 and 1 fingerprint differently:\n%s\n%s", a, b)
	}
	c, _ := (Config{Class: ClassS, ComputeScale: 4}).Fingerprint()
	if c == a {
		t.Error("ComputeScale 4 collides with 1")
	}
}

func TestFingerprintDistinguishesEveryDial(t *testing.T) {
	base := Config{Class: ClassW, Placement: vm.FirstTouch, Seed: 42}
	variants := []Config{
		base,
		{Class: ClassS, Placement: vm.FirstTouch, Seed: 42},
		{Class: ClassW, Placement: vm.WorstCase, Seed: 42},
		{Class: ClassW, Placement: vm.FirstTouch, Seed: 43},
		{Class: ClassW, Placement: vm.FirstTouch, Seed: 42, KernelMig: true},
		{Class: ClassW, Placement: vm.FirstTouch, Seed: 42, UPM: UPMDistribute},
		{Class: ClassW, Placement: vm.FirstTouch, Seed: 42, UPM: UPMRecRep,
			UPMOptions: upm.Options{MaxCritical: 20}},
		{Class: ClassW, Placement: vm.FirstTouch, Seed: 42, Iterations: 7},
		{Class: ClassW, Placement: vm.FirstTouch, Seed: 42, Threads: 8},
		{Class: ClassW, Placement: vm.FirstTouch, Seed: 42, PerturbAt: 3},
		{Class: ClassW, Placement: vm.FirstTouch, Seed: 42, SkipVerify: true},
	}
	seen := map[string]int{}
	for i, cfg := range variants {
		fp, ok := cfg.Fingerprint()
		if !ok {
			t.Fatalf("variant %d not memoizable", i)
		}
		if j, dup := seen[fp]; dup {
			t.Errorf("variants %d and %d collide: %s", j, i, fp)
		}
		seen[fp] = i
	}
}

func TestFingerprintRejectsTweakedConfigs(t *testing.T) {
	cfg := Config{Class: ClassS, Tweak: func(mc *machine.Config) { mc.PageBytes = 4096 }}
	if _, ok := cfg.Fingerprint(); ok {
		t.Error("config with a Tweak function must not be memoizable")
	}
}

func TestFingerprintRejectsTracedConfigs(t *testing.T) {
	// A cache hit would serve the result without re-simulating, silently
	// dropping the requested trace; traced cells must always simulate.
	cfg := Config{Class: ClassS, Tracer: trace.NewRecorder()}
	if _, ok := cfg.Fingerprint(); ok {
		t.Error("config with a Tracer must not be memoizable")
	}
}
