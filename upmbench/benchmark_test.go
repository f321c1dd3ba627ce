package main

import (
	"encoding/json"
	"os"
	"strconv"
	"testing"
)

// TestBenchmarkJSONMatchesSpecs: BENCHMARK.json names exactly the metrics
// a run reports, with the same units.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &bf); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what  string
		specs []spec
		json  []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, bf.EndToEnd}, {"per_layer", perLayer, bf.PerLayer}} {
		want := map[string]string{}
		for _, s := range c.specs {
			want[s.name] = s.unit
		}
		got := map[string]string{}
		for _, m := range c.json {
			got[m.Name] = m.Unit
		}
		for n, u := range want {
			if got[n] != u {
				t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q in the driver", c.what, n, got[n], u)
			}
		}
		for n := range got {
			if _, ok := want[n]; !ok {
				t.Errorf("%s: BENCHMARK.json names %s, which the driver does not report", c.what, n)
			}
		}
	}
}

// TestRefsCoverEverySimSeed: refs.json holds both sweep workloads' fixed
// work at every simulation seed, and seed 42's paper-w-exact values are
// the recorded ones.
func TestRefsCoverEverySimSeed(t *testing.T) {
	for s := uint64(0); s < refSeedCount; s++ {
		key := strconv.FormatUint(simSeed(s), 10)
		if p, ok := refs.Paper[key]; !ok || len(p.Digest) != 64 || p.Extrapolated == 0 {
			t.Errorf("seed %s: paper-w-exact reference %+v", key, p)
		}
		if n := len(refs.Fig4[key]); n != 60 {
			t.Errorf("seed %s: %d fig4-w-full cells, want 60", key, n)
		}
	}
	want := paperRef{"6058cb8410f64f103f1ca62ef5d0fca84024312979ed4b29b335faa38351b273", 48}
	if got := refs.Paper["42"]; got != want || simSeed(42) != 42 {
		t.Errorf("seed 42: %+v (simSeed %d), want %+v", got, simSeed(42), want)
	}
}
