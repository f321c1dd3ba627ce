package nas

// White-box tests of the period-k cycle detector on synthetic
// observation streams — no kernel, no timed loop. The system-level
// bit-identity contracts live in steady_test.go.

import "testing"

// TestPeriodTrackerDetectsSmallPeriods: a strict period-k stream of
// distinct deltas is detected with the minimal period k for every k up to
// the cap, and the proven cycle's positions line up with the deltas the
// next iterations will reproduce.
func TestPeriodTrackerDetectsSmallPeriods(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5, 8} {
		var trk periodTracker
		fireAt := -1 // 1-based observation index of the firing push
		for i := 0; i < 100 && fireAt < 0; i++ {
			if trk.push([]int64{int64(i % k)}, 7) {
				fireAt = i + 1
			}
		}
		if fireAt < 0 {
			t.Fatalf("period %d never fired", k)
		}
		if trk.period != k {
			t.Errorf("period-%d stream detected as period %d", k, trk.period)
		}
		// Minimal firing point: the first k pushes fill one cycle, then
		// (window-1)*k more must each match their lag-k predecessor.
		if want := k + 2*k; fireAt != want {
			t.Errorf("period %d fired at push %d, want %d", k, fireAt, want)
		}
		// cycleDelta(0) must be the delta the next push would carry.
		for p := 0; p < k; p++ {
			want := int64((fireAt + p) % k)
			if got := trk.cycleDelta(p); got[0] != want {
				t.Errorf("period %d cycleDelta(%d) = %d, want %d", k, p, got[0], want)
			}
		}
	}
}

// TestPeriodTrackerPeriodOneEquivalence: for k=1 the firing rule
// degenerates to the original period-one detector — window consecutive
// identical deltas, firing exactly on the window-th.
func TestPeriodTrackerPeriodOneEquivalence(t *testing.T) {
	var trk periodTracker
	for i := 0; i < steadyWindow-1; i++ {
		if trk.push([]int64{42}, 9) {
			t.Fatalf("fired early at push %d", i+1)
		}
	}
	if !trk.push([]int64{42}, 9) {
		t.Fatalf("did not fire on the %d-th identical delta", steadyWindow)
	}
	if trk.period != 1 {
		t.Errorf("proved period %d, want 1", trk.period)
	}
}

// TestPeriodTrackerAdversaries: streams the tracker must never fire on —
// a period-9 cycle (beyond the cap 8), strictly growing deltas, and a
// repeating delta whose state hash cycles with period 9 (hash equality is
// by value, so no k ≤ 8 ever lines the hashes up).
func TestPeriodTrackerAdversaries(t *testing.T) {
	var trk periodTracker
	for i := 0; i < 200; i++ {
		if trk.push([]int64{int64(i % 9)}, 7) {
			t.Fatalf("fired on a period-9 stream at push %d (period %d)", i+1, trk.period)
		}
	}
	trk = periodTracker{}
	for i := 0; i < 200; i++ {
		if trk.push([]int64{int64(i)}, 7) {
			t.Fatalf("fired on aperiodic growth at push %d", i+1)
		}
	}
	trk = periodTracker{}
	for i := 0; i < 200; i++ {
		if trk.push([]int64{42}, uint64(i%9)) {
			t.Fatalf("fired across a period-9 hash cycle at push %d", i+1)
		}
	}
}
