// Command upmbench is upmgo's fixed-work benchmark. It runs the shipped
// binaries (cmd/sweep, cmd/sweepd) on one workload, checks that every run
// did exactly the work the workload fixes, and prints one JSON result
// line. With -trace 1 it instead times calls into each simulator layer
// and reports per-layer figures next to a traced run of the workload.
//
// Workloads (see README.md for why each exists):
//
//	paper-w-exact  sweep -all -class W -steady -threads 1
//	fig4-w-full    sweep -fig 4 -class W (16 threads, no fast path but forking)
//	sweepd-store   one sweepd over a fresh store, driven by a closed-loop client
//
// It is normally started through run.sh, which builds the binaries first:
//
//	bash upmbench/run.sh --workload fig4-w-full --seed 3 --seconds 38 --trace 0
//	bash upmbench/run.sh --steadiness    # two time-separated sets of 10 runs per workload
//	bash upmbench/run.sh --record-refs   # rewrite refs.json (see refs.go)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is one benchmark invocation's shared state: where the binaries and
// scratch space live, the seed, the measurement deadline, and the tally
// of attempted and failed operations. Workloads add metrics to it.
type run struct {
	root, bin, work string
	workload        string
	seed            uint64
	seconds         float64
	start           time.Time
	traced          bool
	jobs            int // -jobs for the binaries: the host's CPU count

	attempted, failed int
	problems          []string
	metrics           map[string]float64 // by name; units come from endToEnd/perLayer
}

// deadline is when the measurement window closes.
func (r *run) deadline() time.Time {
	return r.start.Add(time.Duration(r.seconds * float64(time.Second)))
}

// fits reports whether work taking seconds, started now, ends inside the
// window.
func (r *run) fits(seconds float64) bool {
	return !time.Now().Add(time.Duration(seconds * float64(time.Second))).After(r.deadline())
}

// op records one attempted operation; a non-nil err counts it as failed
// and keeps the reason for stderr.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.problems) < 20 {
			r.problems = append(r.problems, err.Error())
		}
	}
}

// set records a metric.
func (r *run) set(name string, v float64) { r.metrics[name] = v }

type workloadFunc func(r *run) error

var workloads = map[string]workloadFunc{
	"paper-w-exact": paperWExact,
	"fig4-w-full":   fig4WFull,
	"sweepd-store":  sweepdStore,
}

func main() {
	root := flag.String("root", ".", "repository checkout to benchmark")
	bin := flag.String("bin", "", "directory holding the built sweep and sweepd binaries")
	workload := flag.String("workload", "", "workload to run: paper-w-exact, fig4-w-full or sweepd-store")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 38, "measurement window in seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end ones")
	steadiness := flag.Bool("steadiness", false, "run two time-separated sets of every workload and compare them against BENCHMARK.json's bounds")
	recordRefsFlag := flag.Bool("record-refs", false, "rewrite upmbench/refs.json from runs at every reference seed")
	flag.Parse()

	if *steadiness || *recordRefsFlag {
		var err error
		if *steadiness {
			err = checkSteadiness(*root)
		} else {
			err = recordRefs(*root, *bin)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "upmbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	wf, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "upmbench: unknown workload %q (want %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *bin == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "upmbench: need -bin, a positive -seconds and -trace 0 or 1")
		os.Exit(2)
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "upmbench: %v\n", err)
		os.Exit(2)
	}
	r := &run{
		root: abs, bin: *bin, workload: *workload, seed: *seed, seconds: *seconds,
		start: time.Now(), traced: *trace == 1, jobs: runtime.NumCPU(),
		metrics: map[string]float64{},
	}
	r.work = filepath.Join(abs, ".bench_build", "work", fmt.Sprintf("%s-%d", *workload, os.Getpid()))
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "upmbench: %v\n", err)
		os.Exit(1)
	}
	err = wf(r)
	os.RemoveAll(r.work)
	if err != nil {
		// A setup or harness failure, not a failed operation: no result.
		fmt.Fprintf(os.Stderr, "upmbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "upmbench: %s: failed: %s\n", *workload, p)
	}
	want := endToEnd
	if r.traced {
		want = perLayer
	}
	for _, m := range want {
		if _, ok := r.metrics[m.name]; !ok {
			fmt.Fprintf(os.Stderr, "upmbench: %s: metric %s was not measured\n", *workload, m.name)
			os.Exit(1)
		}
	}
	out := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, m := range want {
		out.Metrics[m.name] = metric{Value: r.metrics[m.name], Unit: m.unit}
	}
	host, _ := json.Marshal(map[string]any{"host": hostFacts(), "workload": *workload, "seed": *seed, "trace": *trace})
	fmt.Println(string(host))
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// hostFacts records what the numbers were measured on.
func hostFacts() map[string]any {
	model := "unknown"
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(blob), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{"nproc": runtime.NumCPU(), "cpu_model": model, "go_version": runtime.Version(),
		"goos": runtime.GOOS, "goarch": runtime.GOARCH}
}
