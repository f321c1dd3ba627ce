package omp

import (
	"fmt"
	"sync"
)

// EventSet provides point-to-point post/wait synchronisation between team
// members — the pipelining idiom NAS LU builds from !$OMP FLUSH and flag
// arrays so that a wavefront can flow through a parallel region without
// full barriers. Each (owner, tag) cell is posted by its owning thread
// and may be awaited by any other member.
//
// Virtual time: a Wait that blocks establishes a happens-before edge, so
// the waiter's clock advances to at least the poster's clock at the Post
// plus a synchronisation cost; timing stays deterministic because clocks
// only cross threads at these well-defined events.
//
// Serial mode: thread bodies run to completion in id order, so a Wait on
// an event that is not yet posted cannot block; it returns immediately.
// That is only sound when the results of the region are discarded — which
// is the case for the cold-start placement iteration, the one place the
// NAS drivers run pipelined code serially.
type EventSet struct {
	team  *Team
	tags  int
	cells []eventCell
}

type eventCell struct {
	mu     sync.Mutex
	cond   *sync.Cond
	posted bool
	clock  int64
}

// NewEventSet creates an EventSet with the given number of tags per
// thread (for a k-pipelined sweep, one tag per k plane).
func NewEventSet(t *Team, tags int) *EventSet {
	if tags <= 0 {
		panic(fmt.Sprintf("omp: EventSet with %d tags", tags))
	}
	e := &EventSet{team: t, tags: tags, cells: make([]eventCell, t.n*tags)}
	for i := range e.cells {
		e.cells[i].cond = sync.NewCond(&e.cells[i].mu)
	}
	return e
}

// Tags returns the number of tags per thread.
func (e *EventSet) Tags() int { return e.tags }

func (e *EventSet) cell(owner, tag int) *eventCell {
	if owner < 0 || owner >= e.team.n || tag < 0 || tag >= e.tags {
		panic(fmt.Sprintf("omp: event (%d,%d) out of range (%d threads, %d tags)", owner, tag, e.team.n, e.tags))
	}
	return &e.cells[owner*e.tags+tag]
}

// Post publishes (tr.ID, tag) at the caller's current virtual time and
// charges a small flag-write cost.
func (e *EventSet) Post(tr *Thread, tag int) {
	if r := e.team.rec; r != nil {
		r.EventPost(tr.ID, e, tag)
	} else {
		tr.CPU.Advance(postCost)
	}
	c := e.cell(tr.ID, tag)
	c.mu.Lock()
	c.posted = true
	c.clock = tr.CPU.Now()
	c.mu.Unlock()
	c.cond.Broadcast()
}

// Wait blocks until (owner, tag) has been posted and advances the
// caller's clock past the post time plus the synchronisation cost.
func (e *EventSet) Wait(tr *Thread, owner, tag int) {
	c := e.cell(owner, tag)
	if e.team.serial {
		// See the type comment: in serial mode an unposted event cannot
		// ever be posted while we block; proceed (results discarded).
		c.mu.Lock()
		post := c.clock
		c.mu.Unlock()
		if post > tr.CPU.Now() {
			tr.CPU.SetClock(post + waitCost)
		}
		return
	}
	c.mu.Lock()
	for !c.posted {
		c.cond.Wait()
	}
	post := c.clock
	c.mu.Unlock()
	if r := e.team.rec; r != nil {
		r.EventWait(tr.ID, e, owner, tag)
		return
	}
	if post+waitCost > tr.CPU.Now() {
		tr.CPU.SetClock(post + waitCost)
	} else {
		tr.CPU.Advance(waitCost)
	}
}

// Reset clears every cell. It must run at a quiescent point (between
// parallel regions, or by a Single inside one) before the events are
// reused for the next sweep.
func (e *EventSet) Reset() {
	if r := e.team.rec; r != nil {
		r.EventReset(e)
	}
	for i := range e.cells {
		c := &e.cells[i]
		c.mu.Lock()
		c.posted = false
		c.clock = 0
		c.mu.Unlock()
	}
}

// Post/wait costs: a cache-line flag write plus the spin-read on the
// consumer side (NAS LU's pipelining overhead).
const (
	postCost = 200 * 1000 // 200 ns in ps
	waitCost = 400 * 1000 // 400 ns in ps
)
