package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// mixJob is one sweep request the sweepd-store client submits.
type mixJob struct {
	Kind  string
	Bench string
	Seed  uint64
}

func (j mixJob) body() []byte {
	b, _ := json.Marshal(map[string]any{"kind": j.Kind, "options": map[string]any{
		"class": "S", "benches": []string{j.Bench}, "seed": j.Seed, "threads": 1}})
	return b
}

// Mix shape: every (kind, bench) pair appears mixSeedsPerPair times as a
// cold job with its own simulation seed, so the set of jobs, and with it
// the work, is the same at every workload seed; the seed picks the
// simulation seeds and the order. Each cold job is then recalled
// mixRepeats times from the daemon's memory cache, then once from the
// store after each of warmRestarts restarts, when each of its cells is
// also read once over /v1/cells.
var (
	mixKinds   = []string{"figure1", "figure4"}
	mixBenches = []string{"BT", "SP", "CG", "MG", "FT"}
)

const (
	mixSeedsPerPair = 2
	mixRepeats      = 30
	warmRestarts    = 4
)

// genMix derives the cold job list and the recall order from the seed.
func genMix(seed uint64) (cold []mixJob, recalls []int) {
	rng := rand.New(rand.NewPCG(seed, 0x75706d62656e6368))
	used := map[uint64]bool{}
	for _, k := range mixKinds {
		for _, b := range mixBenches {
			for i := 0; i < mixSeedsPerPair; i++ {
				s := rng.Uint64N(1<<31) + 1
				for used[s] {
					s = rng.Uint64N(1<<31) + 1
				}
				used[s] = true
				cold = append(cold, mixJob{k, b, s})
			}
		}
	}
	rng.Shuffle(len(cold), func(i, j int) { cold[i], cold[j] = cold[j], cold[i] })
	for i := range cold {
		for k := 0; k < mixRepeats; k++ {
			recalls = append(recalls, i)
		}
	}
	rng.Shuffle(len(recalls), func(i, j int) { recalls[i], recalls[j] = recalls[j], recalls[i] })
	return cold, recalls
}

// daemon is one running sweepd process.
type daemon struct {
	cmd      *exec.Cmd
	base     string // http://addr
	launched time.Time
	answered time.Time
	drained  chan struct{}
}

// startDaemon launches sweepd on store and returns once it has answered
// its first request.
func (r *run) startDaemon(store string) (*daemon, error) {
	cmd := exec.Command(filepath.Join(r.bin, "sweepd"), "-store", store, "-addr", "127.0.0.1:0",
		"-jobs", strconv.Itoa(r.jobs), "-log", "json")
	cmd.Dir = r.work
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	d.launched = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addrc := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(pipe)
		sc.Buffer(make([]byte, 1<<16), 1<<20)
		sent := false
		for sc.Scan() {
			if sent {
				continue
			}
			var ev struct{ Msg, Addr string }
			if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Msg == "serving" {
				addrc <- ev.Addr
				sent = true
			}
		}
		if !sent {
			close(addrc)
		}
	}()
	select {
	case addr, ok := <-addrc:
		if !ok {
			d.kill()
			return nil, errors.New("sweepd exited before serving")
		}
		d.base = "http://" + addr
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("sweepd did not start serving within 30s")
	}
	resp, err := httpc.Get(d.base + "/v1/jobs")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET /v1/jobs: %s", resp.Status)
		}
	}
	if err != nil {
		d.kill()
		return nil, fmt.Errorf("sweepd did not answer: %w", err)
	}
	d.answered = time.Now()
	return d, nil
}

// kill stops the daemon at once. Its stderr reader finishes at EOF before
// Wait closes the pipe.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.drained
	d.cmd.Wait()
}

// stop drains the daemon with SIGTERM and returns its CPU seconds and
// peak RSS.
func (d *daemon) stop() (cpu, rssMiB float64, err error) {
	httpc.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return 0, 0, err
	}
	select {
	case <-d.drained:
	case <-time.After(60 * time.Second):
		d.kill()
		return 0, 0, errors.New("sweepd did not drain within 60s")
	}
	if err := d.cmd.Wait(); err != nil {
		return 0, 0, fmt.Errorf("sweepd exit: %w", err)
	}
	ru := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime), float64(ru.Maxrss) / 1024, nil
}

// httpc is the closed-loop client: one process, at most two connections.
var httpc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}

// jobOutcome is a finished job as the client saw it.
type jobOutcome struct {
	latency float64 // ms, submit until the terminal event arrived
	result  []byte  // the job's result JSON
	cells   []string
}

// runJob submits one job and follows its events stream to the terminal
// event. A refused (503) or failed job is an error.
func (d *daemon) runJob(j mixJob) (jobOutcome, error) {
	t0 := time.Now()
	resp, err := httpc.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(j.body()))
	if err != nil {
		return jobOutcome{}, err
	}
	var sub struct{ ID string }
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return jobOutcome{}, fmt.Errorf("POST /v1/jobs %s/%s: %s", j.Kind, j.Bench, resp.Status)
	}
	if err != nil {
		return jobOutcome{}, err
	}
	ev, err := httpc.Get(d.base + "/v1/jobs/" + sub.ID + "/events")
	if err != nil {
		return jobOutcome{}, err
	}
	terminal := ""
	sc := bufio.NewScanner(ev.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for terminal == "" && sc.Scan() {
		var e struct{ Type string }
		if json.Unmarshal(sc.Bytes(), &e) == nil && (e.Type == "job_done" || e.Type == "job_failed") {
			terminal = e.Type
		}
	}
	lat := float64(time.Since(t0)) / 1e6
	io.Copy(io.Discard, ev.Body)
	ev.Body.Close()
	if terminal != "job_done" {
		return jobOutcome{}, fmt.Errorf("job %s (%s/%s seed %d) ended with %q", sub.ID, j.Kind, j.Bench, j.Seed, terminal)
	}
	resp, err = httpc.Get(d.base + "/v1/jobs/" + sub.ID)
	if err != nil {
		return jobOutcome{}, err
	}
	var st struct {
		State  string
		Cells  []struct{ Address string }
		Result json.RawMessage
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return jobOutcome{}, err
	}
	if st.State != "done" {
		return jobOutcome{}, fmt.Errorf("job %s state %q", sub.ID, st.State)
	}
	out := jobOutcome{latency: lat, result: st.Result}
	for _, c := range st.Cells {
		out.cells = append(out.cells, c.Address)
	}
	return out, nil
}

// getCell reads one store record over /v1/cells.
func (d *daemon) getCell(addr string) ([]byte, float64, error) {
	t0 := time.Now()
	resp, err := httpc.Get(d.base + "/v1/cells/" + addr)
	if err != nil {
		return nil, 0, err
	}
	blob, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	lat := float64(time.Since(t0)) / 1e6
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET /v1/cells/%s: %s", addr, resp.Status)
	}
	return blob, lat, err
}

func (d *daemon) scrape(path string) ([]byte, error) {
	resp, err := httpc.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// round is one pass of the sweepd-store mix.
type round struct {
	wall, cpu, rss                     float64
	setups                             []float64 // one per warm restart
	cold, recall, storeRecall, cellGet []float64 // ms
	accesses                           int64
	cells                              []cellRecord // the cold jobs' records
	scrapes                            [][]byte     // /metrics of every daemon, just before it stops
	profile                            []byte       // CPU profile of the cold daemon (traced rounds)
}

// sweepdRound runs the mix once over a fresh store: cold jobs and memory
// recalls on one daemon, then warmRestarts times a new daemon on the same
// store serving first-time store recalls and /v1/cells reads. Every job
// must finish done with the cold job's exact result, and every record
// read after a restart must equal the cold one.
func (r *run) sweepdRound(traced bool) (*round, error) {
	store, err := os.MkdirTemp(r.work, "sweepd-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(store)
	cold, recalls := genMix(r.seed)
	rd := &round{}
	t0 := time.Now()
	d, err := r.startDaemon(store)
	if err != nil {
		return nil, err
	}
	profc := make(chan []byte, 1)
	if traced {
		go func() {
			p, err := d.scrape("/debug/pprof/profile?seconds=2")
			if err != nil {
				fmt.Fprintf(os.Stderr, "upmbench: daemon profile: %v\n", err)
			}
			profc <- p
		}()
	}

	results := make([][]byte, len(cold))
	records := map[string][]byte{}
	var addrs []string // in the order the cold jobs stored them
	complete := true   // every cold job and record read succeeded
	for i, j := range cold {
		o, err := d.runJob(j)
		r.op(err)
		if err != nil {
			complete = false
			continue
		}
		rd.cold = append(rd.cold, o.latency)
		results[i] = o.result
		for _, a := range o.cells {
			blob, _, err := d.getCell(a)
			r.op(err)
			if err != nil {
				complete = false
				continue
			}
			records[a] = blob
			addrs = append(addrs, a)
			if c, err := decodeRecord(blob); err == nil {
				rd.accesses += c.cell.Mach.Accesses
				rd.cells = append(rd.cells, c.cell)
			}
		}
	}
	same := func(i int, o jobOutcome, what string) error {
		if results[i] != nil && !bytes.Equal(o.result, results[i]) {
			return fmt.Errorf("%s of %s/%s seed %d returned a different result than the cold job", what, cold[i].Kind, cold[i].Bench, cold[i].Seed)
		}
		return nil
	}
	for _, i := range recalls {
		o, err := d.runJob(cold[i])
		if err == nil {
			err = same(i, o, "memory recall")
		}
		r.op(err)
		if err == nil {
			rd.recall = append(rd.recall, o.latency)
		}
	}
	if traced {
		rd.profile = <-profc
		if m, err := d.scrape("/metrics"); err == nil {
			rd.scrapes = append(rd.scrapes, m)
		}
	}
	cpu, rss, err := d.stop()
	if err != nil {
		return nil, err
	}
	rd.cpu, rd.rss = cpu, rss

	for k := 0; k < warmRestarts; k++ {
		d, err = r.startDaemon(store)
		if err != nil {
			return nil, err
		}
		rd.setups = append(rd.setups, d.answered.Sub(d.launched).Seconds())
		for i, j := range cold {
			o, err := d.runJob(j)
			if err == nil {
				err = same(i, o, "store recall")
			}
			r.op(err)
			if err == nil {
				rd.storeRecall = append(rd.storeRecall, o.latency)
			}
		}
		for _, a := range addrs {
			blob, lat, err := d.getCell(a)
			if err == nil && !bytes.Equal(blob, records[a]) {
				err = fmt.Errorf("record %s after restart differs from the cold one", a)
			}
			r.op(err)
			if err == nil {
				rd.cellGet = append(rd.cellGet, lat)
			}
		}
		if traced {
			if m, err := d.scrape("/metrics"); err == nil {
				rd.scrapes = append(rd.scrapes, m)
			}
		}
		cpu, rss, err := d.stop()
		if err != nil {
			return nil, err
		}
		rd.cpu += cpu
		rd.rss = max(rd.rss, rss)
	}
	rd.wall = time.Since(t0).Seconds()
	if complete {
		r.op(r.checkMixDigest(records)) // outside the timed round: it hashes the sweepd binary
	}
	return rd, nil
}

// checkMixDigest compares the cold jobs' store records, as one digest,
// with the first complete round's at this seed and build: the mix is
// Threads 1, so the same seed and code must always store the same bytes.
// The first complete round records its digest in .bench_build/guard/ of
// the checkout, under the sweepd binary's hash, so later rounds of the
// run and later runs at the seed compare against it and a rebuild from
// other code starts afresh. Only a round in which every cold job and
// record read succeeded may call it.
func (r *run) checkMixDigest(records map[string][]byte) error {
	addrs := make([]string, 0, len(records))
	for a := range records {
		addrs = append(addrs, a)
	}
	sort.Strings(addrs)
	var all []byte
	for _, a := range addrs {
		all = append(append(all, a...), records[a]...)
	}
	d := digest(all)
	bin, err := os.ReadFile(filepath.Join(r.bin, "sweepd"))
	if err != nil {
		return err
	}
	path := filepath.Join(r.root, ".bench_build", "guard", fmt.Sprintf("sweepd-mix-%s-seed%d", digest(bin)[:16], r.seed))
	switch want, err := os.ReadFile(path); {
	case err == nil && string(want) != d:
		return fmt.Errorf("sweepd-store: cold records digest %s differs from this seed's earlier %s", d, want)
	case err == nil:
		return nil
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(d), 0o644)
}

// sweepdRounds is the sweepd-store workload: the mix round after round
// until the window closes, at least once. Every figure is a median over
// rounds (set-up: over every restart).
func (r *run) sweepdRounds() error {
	var rounds []*round
	for len(rounds) == 0 || r.fits(rounds[len(rounds)-1].wall) {
		rd, err := r.sweepdRound(false)
		if err != nil {
			return err
		}
		rounds = append(rounds, rd)
	}
	r.setLatencies(rounds)
	r.setRoundFigures(rounds)
	return nil
}

// setLatencies reports each job and cell latency percentile as the
// median over rounds of that round's percentile, so a host stall that
// slows one round does not move the run's figure.
func (r *run) setLatencies(rounds []*round) {
	per := func(q float64, samples func(*round) []float64) (float64, int) {
		var xs []float64
		n := 0
		for _, rd := range rounds {
			if s := samples(rd); len(s) > 0 {
				xs = append(xs, quantile(s, q))
				n += len(s)
			}
		}
		return median(xs), n
	}
	cold, nCold := per(0.5, func(rd *round) []float64 { return rd.cold })
	recall, nRecall := per(0.5, func(rd *round) []float64 { return rd.recall })
	recall90, _ := per(0.9, func(rd *round) []float64 { return rd.recall })
	storeRecall, nStore := per(0.5, func(rd *round) []float64 { return rd.storeRecall })
	get, nGet := per(0.5, func(rd *round) []float64 { return rd.cellGet })
	r.set("cold_job_p50_ms", cold)
	r.set("recall_job_p50_ms", recall)
	r.set("recall_job_p90_ms", recall90)
	r.set("store_recall_job_p50_ms", storeRecall)
	r.set("cell_get_p50_ms", get)
	fmt.Fprintf(os.Stderr, "upmbench: %s: sweepd samples: %d cold, %d recall, %d store recall, %d cell reads over %d round(s)\n",
		r.workload, nCold, nRecall, nStore, nGet, len(rounds))
}

func (r *run) setRoundFigures(rounds []*round) {
	var walls, cpus, rss, setups, rates []float64
	for _, rd := range rounds {
		walls = append(walls, rd.wall)
		cpus = append(cpus, rd.cpu)
		rss = append(rss, rd.rss)
		setups = append(setups, rd.setups...)
		rates = append(rates, float64(rd.accesses)/1e6/rd.wall)
	}
	r.set("setup_s", median(setups))
	r.set("wall_s", median(walls))
	r.set("cpu_s", median(cpus))
	r.set("peak_rss_mib", median(rss))
	r.set("sim_maccess_per_s", median(rates))
	fmt.Fprintf(os.Stderr, "upmbench: %s: %d rounds, wall %v\n", r.workload, len(rounds), walls)
}

func sweepdStore(r *run) error {
	if r.traced {
		return r.tracedSweepd()
	}
	return r.sweepdRounds()
}

// histogramP50 reads one Prometheus histogram family out of scraped
// /metrics texts, sums its buckets over every label set and every
// scrape, and interpolates the median within the bucket holding it.
func histogramP50(scrapes [][]byte, family string) float64 {
	cum := map[float64]float64{}
	for _, text := range scrapes {
		for _, line := range strings.Split(string(text), "\n") {
			if !strings.HasPrefix(line, family+"_bucket{") {
				continue
			}
			i := strings.Index(line, `le="`)
			j := strings.LastIndex(line, " ")
			if i < 0 || j < 0 {
				continue
			}
			leText := line[i+4:]
			leText = leText[:strings.Index(leText, `"`)]
			le, err1 := strconv.ParseFloat(leText, 64)
			n, err2 := strconv.ParseFloat(line[j+1:], 64)
			if err1 != nil || err2 != nil {
				continue
			}
			cum[le] += n
		}
	}
	var les []float64
	for le := range cum {
		les = append(les, le)
	}
	if len(les) == 0 {
		return 0
	}
	sort.Float64s(les)
	total := cum[les[len(les)-1]]
	if total == 0 {
		return 0
	}
	half := total / 2
	prevLe, prevN := 0.0, 0.0
	for _, le := range les {
		if cum[le] >= half {
			if le > 1e300 { // +Inf bucket: report its lower edge
				return prevLe
			}
			return prevLe + (le-prevLe)*(half-prevN)/(cum[le]-prevN)
		}
		prevLe, prevN = le, cum[le]
	}
	return prevLe
}

// counterSum adds up every sample of a family whose labels contain
// match (e.g. a histogram's _count lines for code="503").
func counterSum(scrapes [][]byte, name, match string) float64 {
	var t float64
	for _, text := range scrapes {
		for _, line := range strings.Split(string(text), "\n") {
			if !strings.HasPrefix(line, name+"{") || !strings.Contains(line, match) {
				continue
			}
			if v, err := strconv.ParseFloat(line[strings.LastIndex(line, " ")+1:], 64); err == nil {
				t += v
			}
		}
	}
	return t
}
