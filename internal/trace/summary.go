package trace

import (
	"fmt"
	"io"
)

// PhaseTotal aggregates the virtual time of one named parallel region
// across the timed main loop.
type PhaseTotal struct {
	Name    string `json:"name"`
	Regions int    `json:"regions"` // region instances summed
	TimePS  int64  `json:"time_ps"` // fork→join spans, barriers included
}

// IterStat is one timed iteration's row.
type IterStat struct {
	Step        int   `json:"step"`
	TimePS      int64 `json:"time_ps"`
	UPMMoves    int64 `json:"upm_moves"`
	ReplayMoves int64 `json:"replay_moves"`
	UndoMoves   int64 `json:"undo_moves"`
	KmigMoves   int64 `json:"kmig_moves"`
}

// Summary is the structured digest of one run's trace. The phase
// breakdown covers the timed main loop only (between the first
// iter_start and the last iter_end); the flat counters at the bottom
// cover the whole trace including the cold-start iteration.
//
// Sum contract: TotalPS == sum of Phases[].TimePS + SerialPS +
// ExtrapolatedPS == sum of PerIter[].TimePS + ExtrapolatedPS. Region
// forks are stamped after the preceding serial section settles and joins
// after the region's barrier-hook work, so the named spans and the
// serial gaps tile the loop exactly. An extrapolate event extends
// TotalPS past the last simulated iteration without any region or iter
// events inside the span; ExtrapolatedPS carries that tail explicitly so
// both equalities keep holding.
type Summary struct {
	Events     int   `json:"events"`
	Iterations int   `json:"iterations"` // simulated iterations only
	TotalPS    int64 `json:"total_ps"`   // first iter_start → end of run

	// Steady-state fast-forward (zero when the run simulated every
	// iteration): iterations whose time was extrapolated rather than
	// simulated, and the picoseconds they account for.
	ExtrapolatedIters int   `json:"extrapolated_iters,omitempty"`
	ExtrapolatedPS    int64 `json:"extrapolated_ps,omitempty"`

	Phases        []PhaseTotal `json:"phases"` // first-appearance order
	SerialPS      int64        `json:"serial_ps"`
	MarkedPhasePS int64        `json:"marked_phase_ps"` // z_solve spans

	PerIter []IterStat `json:"per_iter"`

	UPMInvocations    int64 `json:"upm_invocations"`
	UPMMoves          int64 `json:"upm_moves"`
	UPMDeactivateIter int   `json:"upm_deactivate_iter"` // 0 = never
	ReplayMoves       int64 `json:"replay_moves"`
	UndoMoves         int64 `json:"undo_moves"`
	KmigScans         int64 `json:"kmig_scans"`
	KmigMoves         int64 `json:"kmig_moves"`

	Shootdowns int64 `json:"shootdowns"` // rounds, whole trace
	Faults     int64 `json:"faults"`     // page faults, whole trace
	Barriers   int64 `json:"barriers"`   // barrier releases, whole trace
}

// Summarize digests a merged event stream (as returned by
// Recorder.Events; the stream must be time-sorted).
func Summarize(events []Event) Summary {
	s := Summary{Events: len(events)}
	phaseIdx := map[string]int{}
	var (
		firstIterStart, lastIterEnd int64
		haveIter                    bool
		iter                        *IterStat
		regionStart                 int64
		regionName                  string
		regionOpen                  bool
		markStart                   int64
		regionPS                    int64
	)
	for i := range events {
		ev := &events[i]
		switch ev.Kind {
		case EvIterStart:
			if !haveIter {
				firstIterStart, haveIter = ev.Time, true
			}
			s.PerIter = append(s.PerIter, IterStat{Step: int(ev.Arg0)})
			iter = &s.PerIter[len(s.PerIter)-1]
		case EvIterEnd:
			if iter != nil {
				iter.TimePS = ev.Arg1
			}
			lastIterEnd = ev.Time
			iter = nil
			s.Iterations++
		case EvRegionFork:
			if iter != nil {
				regionStart, regionName, regionOpen = ev.Time, ev.Name, true
			}
		case EvRegionJoin:
			if regionOpen {
				name := regionName
				if name == "" {
					name = "parallel"
				}
				j, ok := phaseIdx[name]
				if !ok {
					j = len(s.Phases)
					phaseIdx[name] = j
					s.Phases = append(s.Phases, PhaseTotal{Name: name})
				}
				s.Phases[j].Regions++
				s.Phases[j].TimePS += ev.Time - regionStart
				regionPS += ev.Time - regionStart
				regionOpen = false
			}
		case EvPhaseEnter:
			markStart = ev.Time
		case EvPhaseExit:
			s.MarkedPhasePS += ev.Time - markStart
		case EvUPMMigrate:
			s.UPMInvocations++
			s.UPMMoves += ev.Arg0
			if iter != nil {
				iter.UPMMoves += ev.Arg0
			}
		case EvUPMDeactivate:
			if iter != nil && s.UPMDeactivateIter == 0 {
				s.UPMDeactivateIter = iter.Step
			}
		case EvUPMReplay:
			s.ReplayMoves += ev.Arg0
			if iter != nil {
				iter.ReplayMoves += ev.Arg0
			}
		case EvUPMUndo:
			s.UndoMoves += ev.Arg0
			if iter != nil {
				iter.UndoMoves += ev.Arg0
			}
		case EvKmigScan:
			s.KmigScans++
			s.KmigMoves += ev.Arg0
			if iter != nil {
				iter.KmigMoves += ev.Arg0
			}
		case EvExtrapolate:
			// Stamped with the post-jump clock; the span it accounts for
			// ends the timed loop, so treat it like a final iter_end.
			s.ExtrapolatedIters += int(ev.Arg0)
			s.ExtrapolatedPS += ev.Arg1
			lastIterEnd = ev.Time
		case EvShootdown:
			s.Shootdowns += ev.Arg0
		case EvPageFault:
			s.Faults++
		case EvBarrierRelease:
			s.Barriers++
		}
	}
	if haveIter {
		s.TotalPS = lastIterEnd - firstIterStart
		s.SerialPS = s.TotalPS - regionPS - s.ExtrapolatedPS
	}
	return s
}

// WriteSummary renders the summary as text: the per-phase virtual-time
// breakdown the paper's Figure 5 plots, then the engine and machine
// counters, then the per-iteration table.
func WriteSummary(w io.Writer, s Summary) {
	fmt.Fprintf(w, "trace: %d events, %d timed iterations, %.6fs virtual (%d ps)\n",
		s.Events, s.Iterations, float64(s.TotalPS)/1e12, s.TotalPS)
	if s.TotalPS > 0 {
		fmt.Fprintf(w, "phase breakdown of the timed loop:\n")
		pct := func(ps int64) float64 { return 100 * float64(ps) / float64(s.TotalPS) }
		for _, p := range s.Phases {
			fmt.Fprintf(w, "  %-16s %4d regions  %14d ps  %5.1f%%\n", p.Name, p.Regions, p.TimePS, pct(p.TimePS))
		}
		fmt.Fprintf(w, "  %-16s %4s          %14d ps  %5.1f%%\n", "(serial)", "", s.SerialPS, pct(s.SerialPS))
		if s.ExtrapolatedIters > 0 {
			fmt.Fprintf(w, "  %-16s %4d iters    %14d ps  %5.1f%%\n",
				"(extrapolated)", s.ExtrapolatedIters, s.ExtrapolatedPS, pct(s.ExtrapolatedPS))
		}
	}
	if s.MarkedPhasePS > 0 {
		fmt.Fprintf(w, "marked phase total: %d ps\n", s.MarkedPhasePS)
	}
	fmt.Fprintf(w, "upm: %d invocations, %d moves", s.UPMInvocations, s.UPMMoves)
	if s.UPMDeactivateIter > 0 {
		fmt.Fprintf(w, ", self-deactivated at iteration %d", s.UPMDeactivateIter)
	}
	fmt.Fprintf(w, "; replay %d, undo %d\n", s.ReplayMoves, s.UndoMoves)
	fmt.Fprintf(w, "kmig: %d scans, %d moves\n", s.KmigScans, s.KmigMoves)
	fmt.Fprintf(w, "shootdown rounds %d, page faults %d, barriers %d\n",
		s.Shootdowns, s.Faults, s.Barriers)
	if len(s.PerIter) > 0 {
		fmt.Fprintf(w, "per iteration:\n")
		fmt.Fprintf(w, "  %4s %14s %8s %8s %8s %8s\n", "iter", "ps", "upm", "replay", "undo", "kmig")
		for _, it := range s.PerIter {
			fmt.Fprintf(w, "  %4d %14d %8d %8d %8d %8d\n",
				it.Step, it.TimePS, it.UPMMoves, it.ReplayMoves, it.UndoMoves, it.KmigMoves)
		}
	}
}
