// Command nasbench runs one NAS benchmark reproduction on the simulated
// Origin2000 under a chosen placement scheme and migration engine, and
// prints the timing and migration statistics.
//
// Examples:
//
//	nasbench -bench BT -class W -placement wc -upm dist
//	nasbench -bench SP -placement ft -upm recrep -iters 30
//	nasbench -bench FT -class W -placement rand -kmig
//	nasbench -bench SP -class W -steady -v
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"upmgo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(os.Stderr, "nasbench: %v\n", err)
		}
		os.Exit(1)
	}
}

// run is main without the process exit, testable against any streams.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("nasbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	bench := fs.String("bench", "BT", "benchmark: BT, SP, CG, MG, FT or LU (extension)")
	class := fs.String("class", "W", "problem class: S, W or A")
	placement := fs.String("placement", "ft", "page placement: ft, rr, rand or wc")
	kmigOn := fs.Bool("kmig", false, "enable the IRIX-style kernel migration engine")
	upmMode := fs.String("upm", "off", "UPMlib mode: off, dist (data distribution) or recrep (record-replay)")
	iters := fs.Int("iters", 0, "main-loop iterations (0 = class default)")
	scale := fs.Int("scale", 1, "repeat each phase body N times (the paper's Figure 6 scaling)")
	seed := fs.Uint64("seed", 42, "workload seed")
	threads := fs.Int("threads", 0, "team size (0 = all simulated CPUs)")
	steady := fs.Bool("steady", false, "detect the steady state and fast-forward the remaining iterations")
	verbose := fs.Bool("v", false, "print per-iteration times")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}

	cfg := upmgo.NASConfig{
		Iterations:   *iters,
		ComputeScale: *scale,
		Seed:         *seed,
		Threads:      *threads,
		KernelMig:    *kmigOn,
		SkipVerify:   *scale > 1,
		SteadyState:  *steady,
	}
	switch strings.ToUpper(*class) {
	case "S":
		cfg.Class = upmgo.ClassS
	case "W":
		cfg.Class = upmgo.ClassW
	case "A":
		cfg.Class = upmgo.ClassA
	default:
		return fmt.Errorf("unknown class %q", *class)
	}
	switch *placement {
	case "ft":
		cfg.Placement = upmgo.FirstTouch
	case "rr":
		cfg.Placement = upmgo.RoundRobin
	case "rand":
		cfg.Placement = upmgo.Random
	case "wc":
		cfg.Placement = upmgo.WorstCase
	default:
		return fmt.Errorf("unknown placement %q", *placement)
	}
	switch *upmMode {
	case "off":
		cfg.UPM = upmgo.UPMOff
	case "dist":
		cfg.UPM = upmgo.UPMDistribute
	case "recrep":
		cfg.UPM = upmgo.UPMRecRep
	default:
		return fmt.Errorf("unknown upm mode %q", *upmMode)
	}

	r, err := upmgo.RunNAS(strings.ToUpper(*bench), cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s Class %s  %s  (%d threads)\n", r.Kernel, r.Class, r.Label, teamSize(cfg))
	fmt.Fprintf(stdout, "  main loop      %.4f virtual s over %d iterations\n", r.Seconds(), len(r.IterPS))
	fmt.Fprintf(stdout, "  cold start     %.4f virtual s\n", float64(r.ColdPS)/1e12)
	fmt.Fprintf(stdout, "  remote share   %.1f%% of memory accesses\n", 100*r.Mach.RemoteRatio())
	fmt.Fprintf(stdout, "  page faults    %d   kernel migrations %d\n", r.Mach.Faults, r.KmigMoves)
	if cfg.UPM != upmgo.UPMOff {
		fmt.Fprintf(stdout, "  UPMlib         %d migrations (%d in the first invocation), %d replays, %d undos, %d frozen\n",
			r.UPM.Migrations, r.UPM.FirstInvocation, r.UPM.ReplayMigrations, r.UPM.UndoMigrations, r.UPM.Frozen)
		fmt.Fprintf(stdout, "  UPMlib cost    %.4f virtual s on the critical path\n", float64(r.UPM.OverheadPS)/1e12)
	}
	if r.SteadyAt != 0 {
		period := r.SteadyPeriod
		if period == 0 {
			period = 1
		}
		fmt.Fprintf(stdout, "  steady state   period %d detected at iteration %d; %d iterations extrapolated\n",
			period, r.SteadyAt, r.ExtrapolatedIters)
	} else if *steady {
		// The typed diagnosis replaces the old guesswork string: the
		// detector reports what actually blocked it (reason + evidence).
		if w := r.FastPath.WhyNot; w != nil {
			fmt.Fprintf(stdout, "  steady state   not detected [%s]: %s\n", w.Reason, w)
		} else {
			fmt.Fprintf(stdout, "  steady state   not detected\n")
		}
	}
	if r.VerifyErr != nil {
		fmt.Fprintf(stdout, "  VERIFY FAILED  %v\n", r.VerifyErr)
		return fmt.Errorf("%s failed verification: %w", r.Kernel, r.VerifyErr)
	}
	if r.Verified {
		fmt.Fprintf(stdout, "  verified       ok\n")
	}
	if *verbose {
		for i, ps := range r.IterPS {
			fmt.Fprintf(stdout, "  iter %3d  %.6f s  (phase %.6f s)\n", i+1, float64(ps)/1e12, float64(r.PhasePS[i])/1e12)
		}
	}
	return nil
}

func teamSize(cfg upmgo.NASConfig) int {
	if cfg.Threads != 0 {
		return cfg.Threads
	}
	mc := upmgo.DefaultMachineConfig()
	cfg.Class.MachineTweak(&mc)
	return mc.Nodes * mc.CPUsPerNode
}
