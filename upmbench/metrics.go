package main

// spec names one reported metric and its unit. BENCHMARK.json lists the
// same names, with each end-to-end metric's direction and bound.
type spec struct{ name, unit string }

// endToEnd is what a -trace 0 run reports, on every workload.
// recall_job_p90_ms is measured too but reported with the per-layer
// metrics: on a 2-vCPU host with minutes-long slow periods its
// run-to-run spread reached 27–33% in two of four ten-run sets, more
// than any bound the benchmark may set.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"sim_maccess_per_s", "Maccess/s"},
	{"cold_job_p50_ms", "ms"},
	{"recall_job_p50_ms", "ms"},
	{"store_recall_job_p50_ms", "ms"},
	{"cell_get_p50_ms", "ms"},
}

// layerBenches are the NAS kernels whose Step is timed free and charged.
var layerBenches = []string{"BT", "SP", "CG", "MG", "FT"}

// profileModules maps a report name to the Go package (prefix) whose
// flat CPU-profile samples it sums; "runtime" also takes GC and the
// scheduler. Order matters: the first matching prefix wins, so the
// kernels under internal/nas/ come before the nas driver.
var profileModules = []struct{ name, pkg string }{
	{"memsys", "upmgo/internal/memsys."},
	{"machine", "upmgo/internal/machine."},
	{"vm", "upmgo/internal/vm."},
	{"omp", "upmgo/internal/omp."},
	{"kmig", "upmgo/internal/kmig."},
	{"upm", "upmgo/internal/upm."},
	{"nas.bt", "upmgo/internal/nas/bt."},
	{"nas.sp", "upmgo/internal/nas/sp."},
	{"nas.cg", "upmgo/internal/nas/cg."},
	{"nas.mg", "upmgo/internal/nas/mg."},
	{"nas.ft", "upmgo/internal/nas/ft."},
	{"nas", "upmgo/internal/nas."},
	{"exp", "upmgo/internal/exp."},
	{"store", "upmgo/internal/store."},
	{"runtime", "runtime."},
}

// perLayer is what a -trace 1 run reports, on every workload.
var perLayer = func() []spec {
	s := []spec{
		{"memsys.access_lines_ns_per_line", "ns"},
		{"memsys.access_lines.ops", "count"},
		{"memsys.access_range_ns_per_line", "ns"},
		{"memsys.access_range.ops", "count"},
		{"memsys.tlb_lookup_run_ns_per_page", "ns"},
		{"memsys.tlb_lookup_run.ops", "count"},
		{"memsys.l2_miss_ratio", "ratio"},
		{"machine.touch_run_ns_per_elem", "ns"},
		{"machine.touch_run.ops", "count"},
		{"machine.touch_run_shared_ns_per_elem", "ns"},
		{"machine.touch_run_shared.ops", "count"},
		{"machine.settle_us_per_barrier", "us"},
		{"machine.settle.ops", "count"},
		{"vm.resolve_ns", "ns"},
		{"vm.resolve.ops", "count"},
		{"vm.count_miss_n_ns", "ns"},
		{"vm.count_miss_n.ops", "count"},
		{"vm.migrate_ns", "ns"},
		{"vm.migrate.ops", "count"},
		{"kmig.step_barrier_us", "us"},
		{"kmig.step_barrier.ops", "count"},
		{"kmig.migrations", "count"},
		{"omp.region_fork_join_us", "us"},
		{"omp.region_fork_join.ops", "count"},
		{"omp.barrier_us", "us"},
		{"omp.barrier.ops", "count"},
		{"upm.migrate_memory_us", "us"},
		{"upm.migrate_memory.ops", "count"},
		{"upm.replay_us", "us"},
		{"upm.replay.ops", "count"},
		{"upm.undo_us", "us"},
		{"upm.undo.ops", "count"},
	}
	for _, b := range layerBenches {
		s = append(s,
			spec{"nas." + b + ".step_free_ms", "ms"},
			spec{"nas." + b + ".step_charged_ms", "ms"},
			spec{"nas." + b + ".steps", "count"})
	}
	for _, st := range stageNames {
		s = append(s, spec{"nas.stage." + st + "_s", "s"})
	}
	s = append(s,
		spec{"nas.extrapolated_cells", "count"},
		spec{"nas.extrapolated_iter_frac", "ratio"},
		spec{"exp.memo_hit_frac", "ratio"},
		spec{"exp.fork_frac", "ratio"},
		spec{"exp.store_probe_s", "s"},
		spec{"exp.cache_recall_us", "us"},
		spec{"exp.cache_recall.ops", "count"},
		spec{"store.put_us", "us"},
		spec{"store.get_us", "us"},
		spec{"store.read_record_us", "us"},
		spec{"store.ops", "count"},
		spec{"store.record_bytes", "bytes"},
		spec{"recall_job_p90_ms", "ms"},
		spec{"sweepd.queue_wait_ms_p50", "ms"},
		spec{"sweepd.job_run_ms_p50", "ms"},
		spec{"sweepd.http_ms_p50", "ms"},
		spec{"sweepd.rejected", "count"},
	)
	for _, m := range profileModules {
		s = append(s, spec{"layer." + m.name + ".self_frac", "ratio"})
	}
	s = append(s, spec{"layer.other.self_frac", "ratio"}, spec{"trace.overhead_s", "s"})
	return s
}()

// stageNames are the nas driver's host stages as the sweep report names
// them (exp.StageSeconds' JSON keys).
var stageNames = []string{"prefix", "fork", "timed_loop", "extrapolate", "free_run_tail", "verify"}
