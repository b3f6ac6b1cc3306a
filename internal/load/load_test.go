package load

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"camelot/internal/sim"
)

// TestArrivalsReproducible: the schedule is a pure function of
// (dist, seed, rate, duration) — same tuple, byte-identical schedule;
// different seed, different schedule.
func TestArrivalsReproducible(t *testing.T) {
	a1, err := Arrivals(DistPoisson, 42, 1000, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Arrivals(DistPoisson, 42, 1000, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(a1) != len(a2) {
		t.Fatalf("same seed, different lengths: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("same seed diverges at %d: %v vs %v", i, a1[i], a2[i])
		}
	}
	a3, err := Arrivals(DistPoisson, 43, 1000, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	same := len(a1) == len(a3)
	for i := 0; same && i < len(a1); i++ {
		same = a1[i] == a3[i]
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestArrivalsShape: schedules are sorted, in-range, and offer
// approximately the target rate (exactly for uniform; within a few
// percent for Poisson at this sample size).
func TestArrivalsShape(t *testing.T) {
	for _, dist := range []string{DistPoisson, DistUniform} {
		a, err := Arrivals(dist, 7, 2000, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) {
			t.Fatalf("%s: schedule not sorted", dist)
		}
		for _, d := range a {
			if d < 0 || d >= 2*time.Second {
				t.Fatalf("%s: arrival %v outside [0, duration)", dist, d)
			}
		}
		want := 4000.0
		got := float64(len(a))
		if got < want*0.9 || got > want*1.1 {
			t.Fatalf("%s: %v arrivals for target %v", dist, got, want)
		}
		if dist == DistUniform && len(a) != 4000 {
			t.Fatalf("uniform: %d arrivals, want exactly 4000", len(a))
		}
	}
}

// TestArrivalsRejectsBadInput.
func TestArrivalsRejectsBadInput(t *testing.T) {
	if _, err := Arrivals("zipf", 1, 100, time.Second); err == nil {
		t.Fatal("unknown distribution accepted")
	}
	if _, err := Arrivals(DistPoisson, 1, 0, time.Second); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := Arrivals(DistPoisson, 1, 100, 0); err == nil {
		t.Fatal("zero duration accepted")
	}
}

// TestHistPercentilesAgainstBruteForce pins the histogram's quantile
// math against a brute-force sort of the same observations: the
// histogram reports the upper bound of the rank's bucket, so it may
// overestimate by at most one bucket width (7%) and must never
// underestimate below the exact value's bucket lower bound.
func TestHistPercentilesAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h := &Hist{}
	var exact []time.Duration
	for i := 0; i < 20000; i++ {
		// Log-uniform over ~1µs..1s, the histogram's working span.
		d := time.Duration(float64(time.Microsecond) * math.Pow(10, rng.Float64()*6))
		h.Add(d)
		exact = append(exact, d)
	}
	sort.Slice(exact, func(i, j int) bool { return exact[i] < exact[j] })
	for _, p := range []float64{50, 90, 95, 99, 99.9} {
		rank := int(p / 100 * float64(len(exact)))
		if rank < 1 {
			rank = 1
		}
		want := exact[rank-1]
		got := h.Percentile(p)
		// Upper bound of want's bucket is the histogram's answer;
		// allow exactly one growth factor of slack either side.
		if float64(got) < float64(want)/histGrowth || float64(got) > float64(want)*histGrowth {
			t.Fatalf("p%v = %v, exact %v (outside one bucket width)", p, got, want)
		}
	}
	if h.Count() != 20000 {
		t.Fatalf("Count() = %d, want 20000", h.Count())
	}
	if h.Max() != exact[len(exact)-1] {
		t.Fatalf("Max() = %v, want exact max %v", h.Max(), exact[len(exact)-1])
	}
}

// TestHistPercentileNearestRankClampedToMax pins the nearest-rank
// rule and the clamp to the exact maximum: p99.9 of two observations
// is the larger one (rank ⌈1.998⌉ = 2), never the smaller one's bucket
// and never a bucket bound above the maximum, and the median of three
// is the second, never the first.
func TestHistPercentileNearestRankClampedToMax(t *testing.T) {
	h := &Hist{}
	h.Add(time.Millisecond)
	h.Add(11700 * time.Microsecond)
	if got := h.Percentile(99.9); got != 11700*time.Microsecond {
		t.Fatalf("p99.9 of {1ms, 11.7ms} = %v, want 11.7ms", got)
	}
	h = &Hist{}
	for _, ms := range []time.Duration{1, 2, 3} {
		h.Add(ms * time.Millisecond)
	}
	if got := h.Percentile(50); got < 2*time.Millisecond {
		t.Fatalf("p50 of {1, 2, 3}ms = %v, below 2ms", got)
	}
	if got := h.Percentile(100); got != h.Max() {
		t.Fatalf("p100 = %v, want Max %v", got, h.Max())
	}
}

// TestHistMerge: merging per-session histograms equals recording into
// one.
func TestHistMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	whole, part1, part2 := &Hist{}, &Hist{}, &Hist{}
	for i := 0; i < 5000; i++ {
		d := time.Duration(rng.Intn(1_000_000)) * time.Microsecond
		whole.Add(d)
		if i%2 == 0 {
			part1.Add(d)
		} else {
			part2.Add(d)
		}
	}
	merged := &Hist{}
	merged.Merge(part1)
	merged.Merge(part2)
	if merged.Count() != whole.Count() || merged.Max() != whole.Max() {
		t.Fatalf("merge mismatch: count %d/%d max %v/%v",
			merged.Count(), whole.Count(), merged.Max(), whole.Max())
	}
	for _, p := range []float64{50, 95, 99.9} {
		if merged.Percentile(p) != whole.Percentile(p) {
			t.Fatalf("p%v: merged %v, whole %v", p, merged.Percentile(p), whole.Percentile(p))
		}
	}
}

// TestRunPacingOnSimClock pins the generator's open-loop pacing and
// coordinated-omission accounting on the simulation kernel's virtual
// clock, where every latency is exact. One session, a metronome
// schedule at 100/s (10ms apart), and an op that takes 25ms: the
// session falls further behind every arrival, so op j starts
// 15·j ms late and measures 25 + 15·j ms — the queueing delay charged
// to the op that suffered it, which is the whole point of open loop.
func TestRunPacingOnSimClock(t *testing.T) {
	k := sim.New(1)
	var res *Result
	var runErr error
	var started []time.Duration
	k.Go("driver", func() {
		res, runErr = Run(k, Config{
			Rate:     100,
			Duration: 100 * time.Millisecond, // arrivals at 0,10,...,90ms
			Sessions: 1,
			Dist:     DistUniform,
		}, func(i int) error {
			started = append(started, k.Now())
			k.Sleep(25 * time.Millisecond)
			return nil
		})
	})
	k.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if res.Intended != 10 || res.Done != 10 || res.Errs != 0 {
		t.Fatalf("intended/done/errs = %d/%d/%d, want 10/10/0", res.Intended, res.Done, res.Errs)
	}
	// Op j is due at 10j ms but starts when the previous finishes:
	// start_j = 25j ms for j ≥ 1 (start_0 = 0), so latency_j = 25 + 15j ms.
	for j, got := range started {
		want := time.Duration(25*j) * time.Millisecond
		if j == 0 {
			want = 0
		}
		if got != want {
			t.Fatalf("op %d started at %v, want %v", j, got, want)
		}
	}
	wantMax := 25*time.Millisecond + 15*9*time.Millisecond
	if res.Hist.Max() != wantMax {
		t.Fatalf("max latency %v, want %v (coordinated omission must charge queueing delay)", res.Hist.Max(), wantMax)
	}
	if res.Elapsed != 90*time.Millisecond+wantMax {
		t.Fatalf("elapsed %v, want %v", res.Elapsed, 90*time.Millisecond+wantMax)
	}
}

// TestRunStripesSessions: with as many sessions as arrivals, nothing
// queues — every op measures exactly its own service time.
func TestRunStripesSessions(t *testing.T) {
	k := sim.New(1)
	var res *Result
	var runErr error
	k.Go("driver", func() {
		res, runErr = Run(k, Config{
			Rate:     100,
			Duration: 100 * time.Millisecond,
			Sessions: 10,
			Dist:     DistUniform,
		}, func(i int) error {
			k.Sleep(25 * time.Millisecond)
			return nil
		})
	})
	k.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if res.Done != 10 {
		t.Fatalf("done = %d, want 10", res.Done)
	}
	if got := res.Hist.Max(); got != 25*time.Millisecond {
		t.Fatalf("max latency %v, want exactly the 25ms service time", got)
	}
	if got := res.Hist.Percentile(50); got > time.Duration(float64(25*time.Millisecond)*histGrowth) {
		t.Fatalf("p50 %v, want ~25ms", got)
	}
}

// TestRunCountsErrors: op failures are counted and excluded from
// goodput but still paced and recorded.
func TestRunCountsErrors(t *testing.T) {
	k := sim.New(1)
	var res *Result
	var runErr error
	fail := errors.New("boom")
	k.Go("driver", func() {
		res, runErr = Run(k, Config{
			Rate:     1000,
			Duration: 10 * time.Millisecond,
			Sessions: 2,
			Dist:     DistUniform,
		}, func(i int) error {
			if i%2 == 1 {
				return fail
			}
			return nil
		})
	})
	k.Run()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if res.Intended != 10 || res.Errs != 5 {
		t.Fatalf("intended/errs = %d/%d, want 10/5", res.Intended, res.Errs)
	}
	if res.Hist.Count() != 10 {
		t.Fatalf("hist holds %d ops, want all 10 (errors are paced and measured too)", res.Hist.Count())
	}
}
