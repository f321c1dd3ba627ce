package nas

import (
	"upmgo/internal/machine"
	"upmgo/internal/omp"
)

// RunDirect is Run with the kernel's own Step driving the timed loop
// instead of a recorded Program: the reference loop the replay tests
// compare against. Steps the steady-state fast-forward skips are
// executed in free-run mode before Verify, so its verdict is the
// kernel's own.
func RunDirect(build Builder, cfg Config) (Result, error) {
	m, k, team, err := runPrefix(build, cfg)
	if err != nil {
		return Result{}, err
	}
	info := infoOf(k)
	return runMain(m, info, team, cfg, &directSteps{m: m, k: k, team: team, niter: info.iterations(cfg)})
}

type directSteps struct {
	m           *machine.Machine
	k           Kernel
	team        *omp.Team
	niter, done int
}

func (d *directSteps) step(t *omp.Team, _ int, h *Hooks) {
	d.k.Step(t, h)
	d.done++
}

func (d *directSteps) verdict() error {
	d.m.SetFreeRun(true)
	for ; d.done < d.niter; d.done++ {
		d.k.Step(d.team, &Hooks{})
	}
	d.m.SetFreeRun(false)
	return d.k.Verify()
}

// ProgramKey returns the numeric key p was recorded under.
func ProgramKey(p *Program) string { return p.key }

// ProgramShape reports how a recorded program is stored: its step count,
// how many distinct step tables it keeps, the ops it would hold without
// interning, and the ops it holds.
func ProgramShape(p *Program) (steps, distinct, rawOps, ops int) {
	for _, c := range p.chunks {
		ops += len(c)
	}
	for i, st := range p.steps {
		if i == 0 || len(st) == 0 || &st[0] != &p.steps[i-1][0] {
			distinct++
		}
		for _, ids := range st {
			for _, id := range ids {
				rawOps += len(p.chunks[id])
			}
		}
	}
	return len(p.steps), distinct, rawOps, ops
}
