package nas

import (
	"fmt"
	"time"

	"upmgo/internal/machine"
	"upmgo/internal/omp"
)

// Prefix is a reusable checkpoint of one benchmark's engine-independent
// cold start: the simulated machine exactly at the divergence point where
// Run would arm the migration engines (after allocation, initialisation,
// the serial first-touch iteration, Reinit and the counter reset).
//
// A Prefix is immutable once built — Replay only ever clones the held
// machine — so one Prefix may serve concurrent forks. The kernel itself
// is not kept: a fork replays a recorded Program, so it needs only the
// kernel's name, default iteration count, hot pages and phase flag.
type Prefix struct {
	build Builder
	key   string
	snap  *machine.Machine
	info  kernelInfo
}

// RunPrefix simulates the engine-independent prefix of cfg once and
// returns it as a reusable checkpoint. Configs that cannot be canonically
// keyed (a Tweak function, a Tracer or a Metrics sampler — see
// Config.PrefixFingerprint) are rejected: forks must be provably
// interchangeable with from-scratch runs, and those fields break the
// equivalence.
func RunPrefix(build Builder, cfg Config) (*Prefix, error) {
	key, ok := cfg.PrefixFingerprint()
	if !ok {
		return nil, fmt.Errorf("nas: config with a Tweak, Tracer or Metrics cannot be snapshotted")
	}
	m, k, _, err := runPrefix(build, cfg)
	if err != nil {
		return nil, err
	}
	return &Prefix{build: build, key: key, snap: m, info: infoOf(k)}, nil
}

// Key returns the prefix's canonical fingerprint
// (Config.PrefixFingerprint of the config it was built from).
func (p *Prefix) Key() string { return p.key }

// Bytes estimates the memory the snapshot holds.
func (p *Prefix) Bytes() int64 { return p.snap.Bytes() }

// check rejects a config whose prefix fingerprint differs from p's.
func (p *Prefix) check(cfg Config) error {
	key, ok := cfg.PrefixFingerprint()
	if !ok {
		return fmt.Errorf("nas: config with a Tweak, Tracer or Metrics cannot fork a snapshot")
	}
	if key != p.key {
		return fmt.Errorf("nas: config prefix %q does not match snapshot prefix %q", key, p.key)
	}
	return nil
}

func (p *Prefix) threads(cfg Config) int {
	if cfg.Threads == 0 {
		return p.snap.NumCPUs()
	}
	return cfg.Threads
}

// ProgramKey returns the numeric key of cfg's run: configs with equal
// keys replay the same Program, whatever their placement or engines.
func (p *Prefix) ProgramKey(cfg Config) string {
	return programKey(p.info, cfg, p.threads(cfg))
}

// Record records cfg's access program: it builds the kernel afresh on a
// blank machine of the snapshot's geometry (kernel builders allocate
// deterministically, so every array lands at its address in the
// snapshot) and runs it in free-run mode, charging cfg.HostStages.
func (p *Prefix) Record(cfg Config) (*Program, error) {
	if err := p.check(cfg); err != nil {
		return nil, err
	}
	if err := p.info.check(cfg); err != nil {
		return nil, err
	}
	m, err := machine.New(p.snap.Cfg)
	if err != nil {
		return nil, err
	}
	k := p.build(m, cfg.Class, computeScale(cfg), cfg.Seed)
	team, err := omp.NewTeam(m, p.threads(cfg))
	if err != nil {
		return nil, err
	}
	return record(m, k, team, p.ProgramKey(cfg), p.info.iterations(cfg), cfg.HostStages)
}

// Replay forks the checkpoint and runs cfg's timed main loop on the
// fork, replaying prog: arm engines, iterate, report prog's verdict —
// everything Run does after the divergence point. cfg must have the
// same prefix fingerprint as the config the Prefix was built from and
// prog must be recorded under cfg's ProgramKey; the engine fields are
// free. At Threads 1 the returned Result is bit-identical to
// Run(build, cfg) from scratch (the snapshot invariant; at full team
// width both paths are statistical per the simulator's coherence
// contract, see DESIGN.md §8).
func (p *Prefix) Replay(cfg Config, prog *Program) (Result, error) {
	if err := p.check(cfg); err != nil {
		return Result{}, err
	}
	var t0 time.Time
	if cfg.HostStages != nil {
		t0 = time.Now()
	}
	m := p.snap.Clone()
	if err := prog.fits(p.ProgramKey(cfg), m); err != nil {
		return Result{}, err
	}
	// A fresh team is equivalent to the prefix's team at the divergence
	// point: its first region settles the master's serial section from
	// lastJoin 0 instead of the cold-start join time, but with zeroed
	// per-node tallies the settlement is start-independent (zero accesses
	// mean zero queueing delay and a zero saturation floor).
	team, err := omp.NewTeam(m, p.threads(cfg))
	if err != nil {
		return Result{}, err
	}
	if cfg.HostStages != nil {
		cfg.HostStages.Fork += time.Since(t0)
	}
	return runMain(m, p.info, team, cfg, newReplay(prog))
}

// RunFromSnapshot records cfg's program and replays it on a fork of the
// checkpoint: Record then Replay, for callers that share nothing
// between runs.
func (p *Prefix) RunFromSnapshot(cfg Config) (Result, error) {
	prog, err := p.Record(cfg)
	if err != nil {
		return Result{}, err
	}
	return p.Replay(cfg, prog)
}
