package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// sweepRun is one finished sweep invocation.
type sweepRun struct {
	wall, cpu, rssMiB float64
	setup             float64 // launch until the first cell started
	stdout            []byte
	cells             map[string]namedCell // unique cells by store address, from the run's store
	summary           sweepSummary
}

// cellRecord is the part of a stored nas.Result the guards and metrics read.
type cellRecord struct {
	TotalPS           int64   `json:"total_ps"`
	IterPS            []int64 `json:"iter_ps"`
	Verified          bool    `json:"verified"`
	ExtrapolatedIters int     `json:"extrapolated_iters"`
	CampaignIters     int     `json:"campaign_iters"`
	Mach              struct {
		Accesses int64 `json:"accesses"`
		L1Miss   int64 `json:"l1_miss"`
		L2Miss   int64 `json:"l2_miss"`
	} `json:"mach"`
}

func (c cellRecord) extrapolated() bool { return c.ExtrapolatedIters > 0 || c.CampaignIters > 0 }

// unverified names a stored cell whose numerics were not verified, or ""
// if there is none. (Figure 6's scaled cells skip verification by design,
// so only fig4-w-full asks.)
func unverified(cells map[string]namedCell) string {
	for _, c := range cells {
		if !c.cell.Verified {
			return c.name
		}
	}
	return ""
}

// sweepSummary is sweep's closing stderr summary.
type sweepSummary struct {
	simulated, forked, recalled, extrapolated int
}

var (
	summaryRE = regexp.MustCompile(`sweep: (\d+) cells simulated \((\d+) forked from \d+ prefix snapshots\), (\d+) recalled from cache`)
	extrapRE  = regexp.MustCompile(`sweep: (\d+) of (\d+) cells extrapolated`)
)

// sweepCmd is the sweep binary with args plus the benchmark's fixed
// flags: the simulation seed, -jobs, no progress line, the JSON cell log
// and store.
func (r *run) sweepCmd(args []string, store string) *exec.Cmd {
	full := append(append([]string{}, args...),
		"-seed", strconv.FormatUint(simSeed(r.seed), 10), "-jobs", strconv.Itoa(r.jobs),
		"-quiet", "-log", "json", "-store", store)
	cmd := exec.Command(filepath.Join(r.bin, "sweep"), full...)
	cmd.Dir = r.work
	return cmd
}

// runSweep runs the sweep binary once with args plus a fresh result
// store (the guards read every unique cell's full Result from it) and a
// JSON per-cell log (which dates the first cell's start).
func (r *run) runSweep(args []string, extra ...string) (*sweepRun, error) {
	store, err := os.MkdirTemp(r.work, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(store)
	cmd := r.sweepCmd(append(append([]string{}, args...), extra...), store)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	t0 := time.Now()
	err = cmd.Run()
	wall := time.Since(t0).Seconds()
	if err != nil {
		return nil, fmt.Errorf("sweep %s: %v: %s", strings.Join(args, " "), err, tail(errb.Bytes()))
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	sr := &sweepRun{
		wall:   wall,
		cpu:    tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		rssMiB: float64(ru.Maxrss) / 1024,
		stdout: out.Bytes(),
	}
	if sr.setup, err = firstCellStart(errb.Bytes(), t0); err != nil {
		return nil, err
	}
	if sr.cells, err = readStore(store); err != nil {
		return nil, err
	}
	sr.summary = parseSummary(errb.Bytes())
	return sr, nil
}

// setupProbes is how many extra launches each sweep workload run makes
// only to time set-up. Each runs the workload's command with a 3-iteration
// timed loop, which leaves everything before the first cell as it is but
// lets that cell finish within about 0.3 s, and is killed once the cell's
// log line arrives.
const setupProbes = 8

// probeSetup launches the sweep command and returns how long after launch
// its first cell started, killing the process as soon as that cell's log
// line arrives.
func (r *run) probeSetup(args []string) (float64, error) {
	store, err := os.MkdirTemp(r.work, "probe-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(store)
	cmd := r.sweepCmd(args, store)
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		if setup, err := firstCellStart(sc.Bytes(), t0); err == nil {
			return setup, nil
		}
	}
	return 0, errors.New("sweep exited before its first cell finished")
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// firstCellStart returns how long after launch the earliest cell began:
// each JSON "cell" log line carries its completion time and the cell's
// host duration, so completion minus duration is when it started.
func firstCellStart(stderr []byte, launch time.Time) (float64, error) {
	var first time.Time
	sc := bufio.NewScanner(bytes.NewReader(stderr))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 || line[0] != '{' {
			continue
		}
		var ev struct {
			Time time.Time `json:"time"`
			Msg  string    `json:"msg"`
			Host int64     `json:"host"`
		}
		if json.Unmarshal(line, &ev) != nil || ev.Msg != "cell" {
			continue
		}
		start := ev.Time.Add(-time.Duration(ev.Host))
		if first.IsZero() || start.Before(first) {
			first = start
		}
	}
	if first.IsZero() {
		return 0, errors.New("sweep logged no cells")
	}
	return first.Sub(launch).Seconds(), nil
}

func parseSummary(stderr []byte) sweepSummary {
	var s sweepSummary
	if m := summaryRE.FindSubmatch(stderr); m != nil {
		s.simulated, _ = strconv.Atoi(string(m[1]))
		s.forked, _ = strconv.Atoi(string(m[2]))
		s.recalled, _ = strconv.Atoi(string(m[3]))
	}
	if m := extrapRE.FindSubmatch(stderr); m != nil {
		s.extrapolated, _ = strconv.Atoi(string(m[1]))
	}
	return s
}

// readStore decodes every record in a store directory, keyed by
// address.
func readStore(dir string) (map[string]namedCell, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	cells := map[string]namedCell{}
	for _, n := range names {
		blob, err := os.ReadFile(n)
		if err != nil {
			return nil, err
		}
		rec, err := decodeRecord(blob)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", filepath.Base(n), err)
		}
		cells[strings.TrimSuffix(filepath.Base(n), ".json")] = rec
	}
	return cells, nil
}

type namedCell struct {
	name string
	cell cellRecord
}

func decodeRecord(blob []byte) (namedCell, error) {
	var rec struct {
		Bench   string `json:"bench"`
		Payload struct {
			Label string `json:"label"`
			cellRecord
		} `json:"payload"`
	}
	if err := json.Unmarshal(blob, &rec); err != nil {
		return namedCell{}, err
	}
	return namedCell{rec.Bench + "/" + rec.Payload.Label, rec.Payload.cellRecord}, nil
}

func tail(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 400 {
		s = "…" + s[len(s)-400:]
	}
	return s
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// accesses sums simulated memory accesses over a run's unique cells.
func accesses(cells map[string]namedCell) int64 {
	var n int64
	for _, c := range cells {
		n += c.cell.Mach.Accesses
	}
	return n
}

// sweepWorkload times set-up on setupProbes launches, then alternates
// sweepd probe rounds with invocations of one sweep command while another
// invocation and round still fit the window (at least one invocation),
// checking each invocation with guard, and fills the rest of the window
// with probe rounds. The probe rounds measure sweepd's job and cell
// latencies, which the sweep itself cannot; interleaving them spreads
// their samples over the whole run.
func (r *run) sweepWorkload(args []string, guard func(*sweepRun) error) error {
	if r.traced {
		return r.tracedSweep(args, guard)
	}
	var walls, cpus, rss, setups, rates []float64
	for i := 0; i < setupProbes; i++ {
		s, err := r.probeSetup(append(append([]string{}, args...), "-iters", "3"))
		if err != nil {
			return err
		}
		setups = append(setups, s)
	}
	var rounds []*round
	for {
		rd, err := r.sweepdRound(false)
		if err != nil {
			return err
		}
		rounds = append(rounds, rd)
		if len(walls) > 0 && !r.fits(walls[len(walls)-1]+rd.wall) {
			break
		}
		sr, err := r.runSweep(args)
		if err != nil {
			return err
		}
		r.op(guard(sr))
		walls = append(walls, sr.wall)
		cpus = append(cpus, sr.cpu)
		rss = append(rss, sr.rssMiB)
		setups = append(setups, sr.setup)
		rates = append(rates, float64(accesses(sr.cells))/1e6/sr.wall)
	}
	for r.fits(rounds[len(rounds)-1].wall) {
		rd, err := r.sweepdRound(false)
		if err != nil {
			return err
		}
		rounds = append(rounds, rd)
	}
	r.set("setup_s", median(setups))
	r.set("wall_s", median(walls))
	r.set("cpu_s", median(cpus))
	r.set("peak_rss_mib", median(rss))
	r.set("sim_maccess_per_s", median(rates))
	fmt.Fprintf(os.Stderr, "upmbench: %s: %d invocations, wall %v\n", r.workload, len(walls), walls)
	r.setLatencies(rounds)
	return nil
}

var (
	paperArgs = []string{"-all", "-class", "W", "-steady", "-threads", "1"}
	fig4Args  = []string{"-fig", "4", "-class", "W"}
)

func paperWExact(r *run) error { return r.sweepWorkload(paperArgs, r.paperGuard) }

// paperGuard: 66 unique cells, and the extrapolated count and stdout
// digest equal to refs.json's at the simulation seed.
func (r *run) paperGuard(sr *sweepRun) error {
	d := digest(sr.stdout)
	n := 0
	for _, c := range sr.cells {
		if c.cell.extrapolated() {
			n++
		}
	}
	ref, ok := refs.Paper[strconv.FormatUint(simSeed(r.seed), 10)]
	switch {
	case !ok:
		return fmt.Errorf("paper-w-exact: refs.json has no entry for seed %d", simSeed(r.seed))
	case len(sr.cells) != 66 || sr.summary.simulated != 66 || sr.summary.recalled != 66:
		return fmt.Errorf("paper-w-exact: %d stored cells, %d simulated, %d recalled; want 66/66/66",
			len(sr.cells), sr.summary.simulated, sr.summary.recalled)
	case n != sr.summary.extrapolated:
		return fmt.Errorf("paper-w-exact: %d extrapolated cells stored, sweep reports %d", n, sr.summary.extrapolated)
	case d != ref.Digest || n != ref.Extrapolated:
		return fmt.Errorf("paper-w-exact: seed %d gave digest %s with %d extrapolated; refs.json has %s with %d",
			simSeed(r.seed), d, n, ref.Digest, ref.Extrapolated)
	}
	return nil
}

func fig4WFull(r *run) error { return r.sweepWorkload(fig4Args, r.fig4Guard) }

// fig4Band is the ROADMAP's full-width jitter band: every figure value
// must sit within this share of refs.json's median at the seed.
const fig4Band = 0.001

// fig4Values is each stored cell's virtual seconds, by bench/label.
func fig4Values(sr *sweepRun) map[string]float64 {
	vals := map[string]float64{}
	for _, c := range sr.cells {
		vals[c.name] = float64(c.cell.TotalPS) / 1e12
	}
	return vals
}

// fig4Guard: 60 cells simulated, none extrapolated, all verified, and
// every cell's virtual time within fig4Band of refs.json's median for it
// at the simulation seed.
func (r *run) fig4Guard(sr *sweepRun) error {
	if len(sr.cells) != 60 || sr.summary.simulated != 60 {
		return fmt.Errorf("fig4-w-full: %d cells stored, %d simulated; want 60", len(sr.cells), sr.summary.simulated)
	}
	if n := unverified(sr.cells); n != "" {
		return fmt.Errorf("fig4-w-full: cell %s is not verified", n)
	}
	for _, c := range sr.cells {
		if c.cell.extrapolated() {
			return fmt.Errorf("fig4-w-full: cell %s extrapolated", c.name)
		}
	}
	ref := refs.Fig4[strconv.FormatUint(simSeed(r.seed), 10)]
	vals := fig4Values(sr)
	if len(vals) != 60 || len(ref) != 60 {
		return fmt.Errorf("fig4-w-full: %d distinct bench/label cells, %d in refs.json at seed %d; want 60",
			len(vals), len(ref), simSeed(r.seed))
	}
	var names []string
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	worst, worstCell := 0.0, ""
	for _, n := range names {
		want, ok := ref[n]
		if !ok {
			return fmt.Errorf("fig4-w-full: cell %s is not in refs.json at seed %d", n, simSeed(r.seed))
		}
		d := vals[n]/want - 1
		if d > fig4Band || d < -fig4Band {
			return fmt.Errorf("fig4-w-full: cell %s = %.6fs is %+.4f%% from refs.json's %.6fs (band ±%.1f%%)",
				n, vals[n], 100*d, want, 100*fig4Band)
		}
		if max(d, -d) > worst {
			worst, worstCell = max(d, -d), n
		}
	}
	fmt.Fprintf(os.Stderr, "upmbench: fig4-w-full: worst cell %s, %.4f%% from refs.json\n", worstCell, 100*worst)
	return nil
}
