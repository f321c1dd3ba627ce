package omp

import (
	"sync"

	"upmgo/internal/machine"
)

// Critical sections (OpenMP CRITICAL): real mutual exclusion plus
// virtual-time serialisation — a thread entering a section that another
// thread occupied until virtual time T resumes no earlier than T, so the
// simulated cost of contended critical sections is the serialised sum of
// their bodies, as on a real machine. The paper's discussion of
// synchronisation overhead as OpenMP's scalability limit is exactly about
// constructs like this one.
//
// Entry order between concurrently arriving threads follows host
// scheduling, so — unlike barriers and loops — programs whose *results*
// depend on critical-section order are not bit-reproducible. (OpenMP
// gives the same non-guarantee.)

type critSection struct {
	mu  sync.Mutex
	end int64 // virtual time the section was last held until
}

// critCosts: acquiring an uncontended lock and releasing it (a couple of
// coherent read-modify-writes).
const (
	critEnterCost = 300 * 1000 // 300 ns in ps
	critExitCost  = 200 * 1000
)

// Critical executes f under the named critical section. All sections with
// the same name exclude each other, as in OpenMP; the empty name is the
// anonymous section.
func (tr *Thread) Critical(name string, f func(c *machine.CPU)) {
	t := tr.team
	if t.rec != nil {
		t.rec.Critical(tr.ID)
	}
	t.critMu.Lock()
	if t.crit == nil {
		t.crit = make(map[string]*critSection)
	}
	cs, ok := t.crit[name]
	if !ok {
		cs = &critSection{}
		t.crit[name] = cs
	}
	t.critMu.Unlock()

	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.end > tr.CPU.Now() {
		tr.CPU.SetClock(cs.end)
	}
	tr.CPU.Advance(critEnterCost)
	f(tr.CPU)
	tr.CPU.Advance(critExitCost)
	cs.end = tr.CPU.Now()
}
