package exp

import (
	"context"
	"reflect"
	"testing"

	"upmgo/internal/nas"
)

// TestRunnerPrefixSharing pins the fork economics on Figure 4: 12 cells
// per benchmark (4 placements × 3 engines) share 4 cold-start prefixes
// (one per placement), so every simulated cell is a fork and the prefix
// count shows the ~3× sharing the snapshot layer exists for.
func TestRunnerPrefixSharing(t *testing.T) {
	cache := NewCache()
	r := Runner{Jobs: 4, Cache: cache}
	o := SweepOptions{Class: nas.ClassS, Benches: []string{"BT"}, Seed: 42}
	if _, err := r.Figure4(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if st.Misses != 12 || st.Forked != 12 || st.Prefixes != 4 || st.Programs != 1 {
		t.Errorf("Figure4 stats %+v, want 12 misses, 12 forked, 4 prefixes, 1 program", st)
	}

	// Figure 1 is a subset: everything recalled, nothing new forked.
	if _, err := r.Figure1(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	st = cache.Stats()
	if st.Misses != 12 || st.Forked != 12 || st.Prefixes != 4 {
		t.Errorf("after Figure1 stats %+v, want no new simulations", st)
	}

	// Figure 5's recrep cell is engine-only novelty: one new cell, forked
	// from an already-held prefix — zero new cold starts.
	if _, err := r.Figure5(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	st = cache.Stats()
	if st.Misses != 13 || st.Forked != 13 || st.Prefixes != 4 || st.Programs != 1 {
		t.Errorf("after Figure5 stats %+v, want 13 misses, 13 forked, still 4 prefixes and 1 program", st)
	}
}

// TestRunnerOneRecordingPerNumericKey: a whole Figure 4 — five kernels,
// 60 cells over 20 prefixes — records each kernel's access program
// once, because placements and engines share a numeric key; a new seed
// is a new trajectory and records again.
func TestRunnerOneRecordingPerNumericKey(t *testing.T) {
	cache := NewCache()
	r := Runner{Jobs: 2, Cache: cache}
	o := SweepOptions{Class: nas.ClassS, Seed: 42, Threads: 1}
	if _, err := r.Figure4(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 60 || st.Prefixes != 20 || st.Programs != 5 || st.Evicted != 0 {
		t.Errorf("Figure4 stats %+v, want 60 misses, 20 prefixes, 5 programs, no evictions", st)
	}
	o.Benches, o.Seed = []string{"CG"}, 7
	if _, err := r.Figure4(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Programs != 6 {
		t.Errorf("a new seed recorded %d programs in total, want 6", st.Programs)
	}
}

// TestCacheBoundedRetention: prefixes and programs live under one byte
// budget. Jobs with ever-new seeds — a long-lived sweepd's traffic —
// evict the least recently used instead of growing the cache without
// bound, and cells computed after evictions are unchanged.
func TestCacheBoundedRetention(t *testing.T) {
	cache := NewCache()
	r := Runner{Jobs: 2, Cache: cache}
	job := func(seed uint64) []Cell {
		t.Helper()
		cells, err := r.Figure1(context.Background(),
			SweepOptions{Class: nas.ClassS, Benches: []string{"FT"}, Seed: seed, Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		return cells
	}
	job(1)
	one := cache.Stats().HeldBytes
	if one <= 0 {
		t.Fatalf("one job holds %d bytes", one)
	}
	cache.budget = 2 * one // room for two jobs' prefixes and programs
	var last []Cell
	for seed := uint64(2); seed <= 6; seed++ {
		last = job(seed)
		if st := cache.Stats(); st.HeldBytes > cache.budget {
			t.Fatalf("after seed %d the cache holds %d bytes, budget %d", seed, st.HeldBytes, cache.budget)
		}
	}
	st := cache.Stats()
	if st.Evicted == 0 || st.Prefixes != 6*4 || st.Programs != 6 {
		t.Errorf("stats %+v, want evictions and one prefix set and program per seed", st)
	}
	fresh, err := Runner{Jobs: 2, Cache: NewCache()}.Figure1(context.Background(),
		SweepOptions{Class: nas.ClassS, Benches: []string{"FT"}, Seed: 6, Threads: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(last, fresh) {
		t.Error("cells computed under eviction differ from a fresh cache's")
	}
}

// TestRunnerForkNoForkEquivalence is the exp-layer acceptance invariant:
// at Threads 1 a forking runner and a NoFork runner return bit-identical
// cells for the same sweep.
func TestRunnerForkNoForkEquivalence(t *testing.T) {
	o := SweepOptions{Class: nas.ClassS, Benches: []string{"CG"}, Seed: 42, Threads: 1}
	fork := Runner{Jobs: 4, Cache: NewCache()}
	nofork := Runner{Jobs: 4, Cache: NewCache(), NoFork: true}

	f, err := fork.Figure4(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	n, err := nofork.Figure4(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, n) {
		t.Error("Figure4 cells differ between forked and from-scratch simulation")
	}
	if st := fork.Cache.Stats(); st.Forked == 0 {
		t.Error("forking runner forked nothing")
	}
	if st := nofork.Cache.Stats(); st.Forked != 0 || st.Prefixes != 0 || st.Programs != 1 {
		t.Errorf("NoFork runner touched the prefix store or recorded CG more than once: %+v", st)
	}
}
