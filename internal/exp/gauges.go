package exp

import "upmgo/internal/metrics"

// DescribeSweepGauges registers the sweep progress metric families —
// the upmgo_sweep_cells_* series behind cmd/sweep's -metrics-addr
// endpoint and cmd/sweepd's /metrics — alongside whatever per-cell
// NUMA families the samplers publish.
func DescribeSweepGauges(reg *metrics.Registry) {
	reg.Describe("upmgo_sweep_cells_inflight", "gauge", "Cells currently simulating on the worker pool.")
	reg.Describe("upmgo_sweep_cells_done", "counter", "Finished cells by outcome (simulated vs recalled from the memo cache).")
	reg.Describe("upmgo_sweep_cells_forked", "gauge", "Cells whose cold start was forked from a shared prefix snapshot.")
	reg.Describe("upmgo_sweep_prefix_snapshots", "gauge", "Distinct cold-start prefixes simulated and snapshotted.")
	reg.Describe("upmgo_sweep_programs_recorded", "gauge", "Kernel access programs recorded (one per numeric trajectory).")
	reg.Describe("upmgo_sweep_retained_bytes", "gauge", "Bytes of prefix snapshots and programs the cache holds, within its fixed budget.")
	reg.Describe("upmgo_sweep_retained_evictions", "gauge", "Prefix snapshots and programs evicted to stay within the budget.")
	reg.Describe("upmgo_sweep_cells_disk_hits", "gauge", "Cells recalled from the on-disk result store instead of simulating.")
	reg.Describe("upmgo_sweep_cells_stored", "gauge", "Cells persisted to the on-disk result store.")
	metrics.DescribeCellSeconds(reg)
}

// PublishSweepEvent keeps the sweep gauges current from a Runner's
// OnEvent stream. The runner serializes OnEvent calls, and the registry
// locks internally, so the scraping goroutine always sees a consistent
// snapshot.
func PublishSweepEvent(reg *metrics.Registry, cache *Cache, ev Event) {
	if !ev.Done {
		reg.Add("upmgo_sweep_cells_inflight", nil, 1)
		return
	}
	reg.Add("upmgo_sweep_cells_inflight", nil, -1)
	result := "simulated"
	if ev.CacheHit {
		result = "recalled"
	}
	reg.Add("upmgo_sweep_cells_done", metrics.Labels{"result": result}, 1)
	if rep := ev.Report; rep != nil {
		metrics.ObserveCellSeconds(reg, rep.Bench, rep.Label, rep.HostSeconds)
	}
	st := cache.Stats()
	reg.Set("upmgo_sweep_cells_forked", nil, float64(st.Forked))
	reg.Set("upmgo_sweep_prefix_snapshots", nil, float64(st.Prefixes))
	reg.Set("upmgo_sweep_programs_recorded", nil, float64(st.Programs))
	reg.Set("upmgo_sweep_retained_bytes", nil, float64(st.HeldBytes))
	reg.Set("upmgo_sweep_retained_evictions", nil, float64(st.Evicted))
	reg.Set("upmgo_sweep_cells_disk_hits", nil, float64(st.DiskHits))
	reg.Set("upmgo_sweep_cells_stored", nil, float64(st.StorePuts))
}
