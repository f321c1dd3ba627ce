package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness check reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Steadiness sets: steadySets time-separated sets of steadyRuns runs of
// every workload. Ten runs a set give each spread the quartiles of ten
// values, the sample a bound is judged on.
const (
	steadySets = 2
	steadyRuns = 10
)

// checkSteadiness runs steadySets time-separated sets of steadyRuns runs
// of every workload in BENCHMARK.json, each run with its own seed and the
// workloads interleaved within a set, exactly as BENCHMARK.json's command
// runs them. It prints, per workload, set and end-to-end metric, the
// median, quartiles and quartile spread as a share of the median, and
// each later set's median against the first set's; a spread over the
// metric's bound or a later median off the first by more than the bound,
// either way, fails the check.
func checkSteadiness(root string) error {
	blob, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	// values[set][workload][metric] = one value per run
	values := make([]map[string]map[string][]float64, steadySets)
	failedRuns := 0
	for s := 0; s < steadySets; s++ {
		values[s] = map[string]map[string][]float64{}
		for i := 0; i < steadyRuns; i++ {
			seed := uint64(1000*(s+1) + i + 1)
			for _, w := range names {
				res, err := runOnce(root, bf, w, seed)
				if err != nil {
					return fmt.Errorf("set %d, %s seed %d: %w", s+1, w, seed, err)
				}
				if !res.Correct || res.Failed > 0 {
					failedRuns++
				}
				if values[s][w] == nil {
					values[s][w] = map[string][]float64{}
				}
				for name, m := range res.Metrics {
					values[s][w][name] = append(values[s][w][name], m.Value)
				}
				line, _ := json.Marshal(res)
				fmt.Fprintf(os.Stderr, "upmbench: steadiness: set %d run %d %s seed %d: %s\n", s+1, i+1, w, seed, line)
			}
		}
	}
	ok := failedRuns == 0
	fmt.Printf("host: %v\n", hostFacts())
	fmt.Printf("%-14s %-24s %4s %14s %14s %14s %8s %8s %9s\n", "workload", "metric", "set", "q1", "median", "q3", "spread", "bound", "vs set 1")
	for _, w := range names {
		for _, e := range bf.EndToEnd {
			var first float64
			for s := 0; s < steadySets; s++ {
				xs := values[s][w][e.Name]
				q1, med, q3 := quartiles(xs)
				spread := (q3 - q1) / med
				verdict := ""
				if spread > e.Bound {
					verdict = " SPREAD>BOUND"
					ok = false
				}
				diff := ""
				if s == 0 {
					first = med
				} else {
					d := med/first - 1
					diff = fmt.Sprintf("%+8.2f%%", 100*d)
					if d > e.Bound || d < -e.Bound {
						verdict += " MOVED>BOUND"
						ok = false
					}
				}
				fmt.Printf("%-14s %-24s %4d %14.6g %14.6g %14.6g %7.2f%% %7.0f%% %9s%s\n",
					w, e.Name, s+1, q1, med, q3, 100*spread, 100*e.Bound, diff, verdict)
			}
		}
	}
	if failedRuns > 0 {
		fmt.Printf("%d runs reported failed operations or incorrect output\n", failedRuns)
	}
	if !ok {
		return fmt.Errorf("not steady within BENCHMARK.json's bounds")
	}
	fmt.Println("steady: every spread and every set-to-set median within its bound")
	return nil
}

// runOnce runs BENCHMARK.json's command for one workload and seed from
// the repository root and decodes its result line.
func runOnce(root string, bf benchmarkFile, workload string, seed uint64) (result, error) {
	args := append(append([]string{}, bf.Command[1:]...),
		"--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(bf.RunSeconds), "--trace", "0")
	cmd := exec.Command(bf.Command[0], args...)
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return result{}, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("result line: %w", err)
	}
	fmt.Fprintf(os.Stderr, "upmbench: steadiness: %s seed %d took %.1fs\n", workload, seed, time.Since(t0).Seconds())
	return res, nil
}
