package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// The sweep workloads simulate one of refSeedCount reference seeds,
// refSeedBase + seed mod refSeedCount, so every run can be checked against
// values recorded in refs.json instead of against earlier runs in the
// checkout. Seed 42 is one of them.
const (
	refSeedBase  = 40
	refSeedCount = 4
	// fig4RefRuns is how many invocations per seed refs.json's fig4-w-full
	// per-cell medians are taken over.
	fig4RefRuns = 3
)

// simSeed is the simulation seed the sweep workloads pass to sweep.
func simSeed(seed uint64) uint64 { return refSeedBase + seed%refSeedCount }

// paperRef is paper-w-exact's fixed work at one simulation seed.
type paperRef struct {
	Digest       string `json:"digest"`       // SHA-256 of sweep's stdout
	Extrapolated int    `json:"extrapolated"` // of the 66 unique cells
}

// refFile is refs.json: per simulation seed (as a decimal string), the
// paper-w-exact stdout digest and extrapolated count, and every
// fig4-w-full cell's virtual seconds (the median over fig4RefRuns
// invocations), by bench/label.
type refFile struct {
	Paper map[string]paperRef           `json:"paper_w_exact"`
	Fig4  map[string]map[string]float64 `json:"fig4_w_full"`
}

//go:embed refs.json
var refsJSON []byte

var refs = func() refFile {
	var f refFile
	if err := json.Unmarshal(refsJSON, &f); err != nil {
		panic(fmt.Sprintf("refs.json: %v", err))
	}
	return f
}()

// recordRefs runs both sweep workloads' commands at every reference seed
// and writes their fixed-work values to upmbench/refs.json under root.
// Run it (through run.sh, with -record-refs) only when a program change
// is meant to change those values.
func recordRefs(root, bin string) error {
	f := refFile{Paper: map[string]paperRef{}, Fig4: map[string]map[string]float64{}}
	for s := uint64(refSeedBase); s < refSeedBase+refSeedCount; s++ {
		r := &run{root: root, bin: bin, seed: s, jobs: runtime.NumCPU(), start: time.Now()}
		r.work = filepath.Join(root, ".bench_build", "work", fmt.Sprintf("refs-%d", os.Getpid()))
		if err := os.MkdirAll(r.work, 0o755); err != nil {
			return err
		}
		key := strconv.FormatUint(s, 10)
		var p paperRef
		for i := 0; i < 2; i++ {
			sr, err := r.runSweep(paperArgs)
			if err != nil {
				return err
			}
			q := paperRef{digest(sr.stdout), sr.summary.extrapolated}
			if i > 0 && q != p {
				return fmt.Errorf("seed %d: paper-w-exact gave %v, then %v", s, p, q)
			}
			p = q
		}
		f.Paper[key] = p
		per := map[string][]float64{}
		for i := 0; i < fig4RefRuns; i++ {
			sr, err := r.runSweep(fig4Args)
			if err != nil {
				return err
			}
			for n, v := range fig4Values(sr) {
				per[n] = append(per[n], v)
			}
		}
		f.Fig4[key] = map[string]float64{}
		for n, xs := range per {
			f.Fig4[key][n] = median(xs)
		}
		os.RemoveAll(r.work)
		fmt.Fprintf(os.Stderr, "upmbench: refs: seed %d: digest %s, %d extrapolated, %d fig4 cells\n",
			s, p.Digest, p.Extrapolated, len(f.Fig4[key]))
	}
	blob, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "upmbench", "refs.json"), append(blob, '\n'), 0o644)
}
