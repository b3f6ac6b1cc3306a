package main

import (
	"io"
	"testing"
	"time"
)

// TestSameSeedRepeatsCounts is the benchmark's self-test: two short
// traced update runs with one seed must attempt the same transactions,
// fail none, and repeat the exact per-layer counts.
func TestSameSeedRepeatsCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a real cluster twice")
	}
	dir := t.TempDir()
	var reps [2]*report
	for i := range reps {
		rep, err := bench(options{workload: "update", seed: 42, seconds: 2, trace: true, workDir: dir}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.endToEnd["commit_frac"].Value != 1 {
			t.Fatalf("run %d: correct=%v failed=%d of %d", i, rep.Correct, rep.Failed, rep.Attempted)
		}
		reps[i] = rep
	}
	if reps[0].Attempted != reps[1].Attempted {
		t.Errorf("attempted %d then %d", reps[0].Attempted, reps[1].Attempted)
	}
	for _, name := range []string{"wal.appends_per_txn", "ctl.calls_per_txn"} {
		if a, b := reps[0].perLayer[name].Value, reps[1].perLayer[name].Value; a != b {
			t.Errorf("%s: %v then %v", name, a, b)
		}
	}
	if got := reps[0].perLayer["ctl.calls_per_txn"].Value; got != 5 {
		t.Errorf("ctl.calls_per_txn = %v, want 5 (begin, two writes, addsites, commit)", got)
	}
}

// TestQuantileIsASample pins the exact percentile: the nearest-rank
// sample, so no percentile can exceed the maximum.
func TestQuantileIsASample(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 1000; i++ {
		d = append(d, time.Duration(i)*time.Microsecond)
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 500 * time.Microsecond}, {0.99, 990 * time.Microsecond}, {0.999, 999 * time.Microsecond}, {1, 1000 * time.Microsecond}} {
		if got := quantile(d, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if n := above(d, 0.99); n != 10 {
		t.Errorf("above(0.99) = %d, want 10", n)
	}
	if got := quantile(d[:1], 0.999); got != d[0] {
		t.Errorf("one sample: quantile = %v, want %v", got, d[0])
	}
}
