package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"upmgo/internal/exp"
	"upmgo/internal/nas"
	"upmgo/internal/store"
)

// tracedSweep is a sweep workload's -trace 1 run: one plain invocation,
// one with -report and -cpuprofile (both guarded like any other), the
// stage sums, exp ratios and per-package profile shares of the traced
// one, a traced sweepd probe round for the daemon's histograms, and the
// layer drivers. Tracing overhead is traced minus plain wall time.
func (r *run) tracedSweep(args []string, guard func(*sweepRun) error) error {
	plain, err := r.runSweep(args)
	if err != nil {
		return err
	}
	r.op(guard(plain))
	report := filepath.Join(r.work, "report.json")
	profile := filepath.Join(r.work, "cpu.pprof")
	traced, err := r.runSweep(args, "-report", report, "-cpuprofile", profile)
	if err != nil {
		return err
	}
	r.op(guard(traced))
	r.set("trace.overhead_s", traced.wall-plain.wall)

	var rep struct {
		Cells  int                `json:"cells"`
		ByKind map[string]int     `json:"cells_by_kind"`
		Stages map[string]float64 `json:"stage_seconds"`
	}
	blob, err := os.ReadFile(report)
	if err == nil {
		err = json.Unmarshal(blob, &rep)
	}
	if err != nil {
		return fmt.Errorf("sweep report: %w", err)
	}
	r.setStages(rep.Stages)
	r.set("exp.memo_hit_frac", frac(rep.ByKind[string(exp.FastPathRecalled)], rep.Cells))
	r.set("exp.fork_frac", frac(traced.summary.forked, traced.summary.simulated))
	r.set("exp.store_probe_s", rep.Stages["store_probe"])
	var cells []cellRecord
	for _, c := range traced.cells {
		cells = append(cells, c.cell)
	}
	r.setCellFigures(cells)
	if err := r.setProfile(profile); err != nil {
		return err
	}
	rd, err := r.sweepdRound(true)
	if err != nil {
		return err
	}
	r.setLatencies([]*round{rd})
	r.setDaemonFigures(rd.scrapes)
	return r.layerDrivers()
}

// tracedSweepd is sweepd-store's -trace 1 run: a plain round, a traced
// round (a CPU profile of the cold daemon over its first two seconds and
// /metrics scraped from both daemons), the same job mix replayed
// in-process through exp.Runner for the nas driver's stage sums, and the
// layer drivers.
func (r *run) tracedSweepd() error {
	plain, err := r.sweepdRound(false)
	if err != nil {
		return err
	}
	rd, err := r.sweepdRound(true)
	if err != nil {
		return err
	}
	r.set("trace.overhead_s", rd.wall-plain.wall)
	r.setLatencies([]*round{plain, rd})
	r.setCellFigures(rd.cells)
	r.setDaemonFigures(rd.scrapes)
	profile := filepath.Join(r.work, "sweepd.pprof")
	if err := os.WriteFile(profile, rd.profile, 0o644); err != nil {
		return err
	}
	if err := r.setProfile(profile); err != nil {
		return err
	}
	if err := r.replayMix(); err != nil {
		return err
	}
	return r.layerDrivers()
}

// replayMix runs the sweepd-store job mix through exp.Runner in this
// process, with the daemon's sharing (one cache over one store, a fresh
// cache for the restart), and reports the cells' host-stage sums and the
// cache's ratios.
func (r *run) replayMix() error {
	dir, err := os.MkdirTemp(r.work, "replay-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	var reports []*exp.CellReport
	onEvent := func(ev exp.Event) {
		if ev.Done && ev.Report != nil {
			reports = append(reports, ev.Report)
		}
	}
	cold, recalls := genMix(r.seed)
	reqs := make([]exp.SweepRequest, len(cold))
	for i, j := range cold {
		kind, err := exp.ParseKind(j.Kind)
		if err != nil {
			return err
		}
		reqs[i] = exp.SweepRequest{Kind: kind, Options: exp.SweepOptions{
			Class: nas.ClassS, Benches: []string{j.Bench}, Seed: j.Seed, Threads: 1}}
	}
	ctx := context.Background()
	var forked, simulated uint64
	coldOrder := make([]int, len(reqs))
	for i := range coldOrder {
		coldOrder[i] = i
	}
	// Daemon A: cold jobs, then memory recalls; daemon B: store recalls.
	for _, order := range [][]int{slices.Concat(coldOrder, recalls), coldOrder} {
		cache := exp.NewCache()
		cache.SetStore(st)
		runner := exp.Runner{Jobs: r.jobs, Cache: cache, OnEvent: onEvent}
		for _, i := range order {
			if _, err := runner.Sweep(ctx, reqs[i]); err != nil {
				return fmt.Errorf("replay %s/%s: %w", cold[i].Kind, cold[i].Bench, err)
			}
		}
		cs := cache.Stats()
		forked += cs.Forked
		simulated += cs.Misses
	}
	sr := exp.BuildSweepReport(reports, 0)
	stages := map[string]float64{}
	sr.Stages.Each(func(name string, s float64) { stages[name] = s })
	r.setStages(stages)
	r.set("exp.memo_hit_frac", frac(sr.ByKind[exp.FastPathRecalled], sr.Cells))
	r.set("exp.fork_frac", frac(int(forked), int(simulated)))
	r.set("exp.store_probe_s", stages["store_probe"])
	return nil
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (r *run) setStages(stages map[string]float64) {
	for _, st := range stageNames {
		r.set("nas.stage."+st+"_s", stages[st])
	}
}

// setCellFigures reports the simulated memory system's L2 miss ratio and
// how much of the timed loops was extrapolated, over unique cells.
func (r *run) setCellFigures(cells []cellRecord) {
	var l1, l2 int64
	var extra, iters, n int
	for _, c := range cells {
		l1 += c.Mach.L1Miss
		l2 += c.Mach.L2Miss
		iters += len(c.IterPS)
		extra += c.ExtrapolatedIters + c.CampaignIters
		if c.extrapolated() {
			n++
		}
	}
	r.set("memsys.l2_miss_ratio", frac(int(l2), int(l1)))
	r.set("nas.extrapolated_cells", float64(n))
	r.set("nas.extrapolated_iter_frac", frac(extra, iters))
}

// setDaemonFigures reads sweepd's own histograms: queue wait and run time
// per job, HTTP time per request, and refused submissions.
func (r *run) setDaemonFigures(scrapes [][]byte) {
	r.set("sweepd.queue_wait_ms_p50", 1e3*histogramP50(scrapes, "upmgo_sweepd_job_queue_seconds"))
	r.set("sweepd.job_run_ms_p50", 1e3*histogramP50(scrapes, "upmgo_sweepd_job_run_seconds"))
	r.set("sweepd.http_ms_p50", 1e3*histogramP50(scrapes, "upmgo_sweepd_http_request_seconds"))
	r.set("sweepd.rejected", counterSum(scrapes, "upmgo_sweepd_http_request_seconds_count", `code="503"`))
}

// setProfile splits a CPU profile's flat samples by Go package into the
// layer.<module>.self_frac shares (go tool pprof does the decoding).
func (r *run) setProfile(path string) error {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", "-unit=ms", path)
	cmd.Dir = r.work
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+r.work)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go tool pprof: %v: %s", err, tail(errb.Bytes()))
	}
	shares := map[string]float64{}
	var total float64
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[0], "ms") || !strings.HasSuffix(f[1], "%") {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			continue
		}
		fn := strings.Join(f[5:], " ")
		mod := "other"
		for _, m := range profileModules {
			if strings.HasPrefix(fn, m.pkg) || (m.name == "runtime" && strings.HasPrefix(fn, "runtime/")) {
				mod = m.name
				break
			}
		}
		shares[mod] += ms
		total += ms
	}
	if total == 0 {
		return fmt.Errorf("cpu profile %s has no samples", filepath.Base(path))
	}
	for _, m := range profileModules {
		r.set("layer."+m.name+".self_frac", shares[m.name]/total)
	}
	r.set("layer.other.self_frac", shares["other"]/total)
	return nil
}
