package main

import (
	"math"
	"slices"
	"testing"
)

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the form the steadiness check is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 4, 3, 2, 1}, [3]float64{1.5, 3, 4.5}},
		{[]float64{3.1, 0.2, 7.7, 1.5, 9.0, 2.2, 4.4}, [3]float64{1.5, 3.1, 7.7}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
}

func TestHistogramP50(t *testing.T) {
	text := []byte(`# TYPE h histogram
h_bucket{code="200",le="0.005"} 2
h_bucket{code="200",le="0.01"} 6
h_bucket{code="200",le="+Inf"} 8
h_count{code="200"} 8
h_bucket{code="503",le="0.005"} 0
h_bucket{code="503",le="0.01"} 2
h_bucket{code="503",le="+Inf"} 2
h_count{code="503"} 2
`)
	// 10 observations, cumulative 2 at 5ms and 8 at 10ms: the 5th lies
	// half way through the (5ms, 10ms] bucket.
	if got := histogramP50([][]byte{text}, "h"); math.Abs(got-0.0075) > 1e-12 {
		t.Errorf("histogramP50 = %v, want 0.0075", got)
	}
	if got := counterSum([][]byte{text, text}, "h_count", `code="503"`); got != 4 {
		t.Errorf("counterSum = %v, want 4", got)
	}
}

// TestGenMixFromSeed: the job list is a function of the seed, balanced
// over every (kind, bench) pair, with distinct simulation seeds.
func TestGenMixFromSeed(t *testing.T) {
	a, ra := genMix(7)
	b, rb := genMix(7)
	if !slices.Equal(a, b) || !slices.Equal(ra, rb) {
		t.Fatal("genMix is not a function of its seed")
	}
	if c, _ := genMix(8); slices.Equal(a, c) {
		t.Error("seeds 7 and 8 gave the same mix")
	}
	pairs := map[[2]string]int{}
	seeds := map[uint64]bool{}
	for _, j := range a {
		pairs[[2]string{j.Kind, j.Bench}]++
		seeds[j.Seed] = true
	}
	if len(pairs) != len(mixKinds)*len(mixBenches) || len(seeds) != len(a) {
		t.Errorf("mix covers %d pairs with %d distinct seeds over %d jobs", len(pairs), len(seeds), len(a))
	}
	for p, n := range pairs {
		if n != mixSeedsPerPair {
			t.Errorf("pair %v appears %d times, want %d", p, n, mixSeedsPerPair)
		}
	}
	if len(ra) != len(a)*mixRepeats {
		t.Errorf("%d recalls, want %d", len(ra), len(a)*mixRepeats)
	}
}
