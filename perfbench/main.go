// Command perfbench is the repository's benchmark. It boots a real
// three-site cluster in process (RealNodes on loopback UDP with
// on-disk WALs, driven over ctl), runs one workload for a fixed time,
// checks that every acknowledged commit is durable and every read
// correct, restarts every site from its WAL and checks again, and
// prints its metrics. The last line of standard output is one JSON
// object: the end-to-end metrics when --trace is 0, the per-layer
// metrics of a traced run when it is 1.
//
// Build and run it from the repository root through run.sh:
//
//	bash perfbench/run.sh --workload update --seed 1 --seconds 20 --trace 0
//
// A traced run also writes its spans to .bench_build/traces. The
// benchmark's self-test runs with `go test` in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"camelot/internal/ctl"
)

// setupRepeats is how many times a run sets up a cluster; setup_s is
// the median, and only the last cluster is measured.
const setupRepeats = 9

// restartRepeats is how many times a run restarts the cluster from
// its WALs after the measured window; recovery.restart_s is the
// median.
const restartRepeats = 9

// restartGap spaces the restarts out. Recovery reads the log with two
// syscalls a record, and on a shared host their cost wanders over
// seconds: back-to-back restarts all sample one moment, and their
// median moved by a quarter between runs.
const restartGap = time.Second

// warmTxns is the number of warm-up transactions per session.
const warmTxns = 40

// maxSessions caps the client sessions. Each session has one ctl
// call in flight at a time; the cap is also the host's CPU count when
// that is smaller.
const maxSessions = 2

// maxRun bounds a whole invocation, build excluded.
const maxRun = 170 * time.Second

// options is one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workDir  string // scratch space for WALs and span files
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: update or read-mix")
	fs.Int64Var(&o.seed, "seed", 1, "seed of the arrival schedule and key choices")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured window in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 runs traced and reports the per-layer metrics")
	fs.StringVar(&o.workDir, "workdir", ".bench_build", "directory for WALs and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[o.workload]; !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload update|read-mix, --seconds > 0, --trace 0|1\n")
		return 2
	}
	o.trace = traceFlag == 1
	// A run that hangs must still end, without a result.
	watchdog := time.AfterFunc(maxRun, func() { //lint:walltime bounds the benchmark process itself
		fmt.Fprintf(stderr, "perfbench: run exceeded %v\n", maxRun)
		os.Exit(1)
	})
	defer watchdog.Stop()
	rep, err := bench(o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.result.Correct {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is a finished run: the printed result plus what the
// self-test compares.
type report struct {
	result
	endToEnd, perLayer map[string]metric
}

func sessions() int {
	if n := runtime.NumCPU(); n < maxSessions {
		return n
	}
	return maxSessions
}

// bench runs one workload end to end and prints a readable summary
// to out.
func bench(o options, out io.Writer) (*report, error) {
	w := workloads[o.workload]
	S := sessions()
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return nil, err
	}
	data, err := os.MkdirTemp(o.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(data)

	fmt.Fprintf(out, "workload %s: open loop, Poisson %.0f txn/s over %d sessions; seed %d; %.0f s; %d sites; GroupCommit on, FlushInterval 25ms, one Store.Append per record\n",
		w.name, w.rate, S, o.seed, o.seconds, nsites)

	var tr *tracer
	if o.trace {
		tr = &tracer{}
	}
	// Set up several times and keep the last cluster: boot, preload,
	// dial every pool, warm up.
	var setups []float64
	var cl *cluster
	for k := 0; k < setupRepeats; k++ {
		if cl != nil {
			cl.close()
		}
		t0 := now()
		cl, err = setup(filepath.Join(data, fmt.Sprint(k)), w, o.seed, S, tr)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, now().Sub(t0).Seconds())
	}
	defer func() { cl.close() }()

	d := &driver{cl: cl, w: w, seed: o.seed, tr: tr}
	cl.quiesce()
	before := cl.counters()
	dur := time.Duration(o.seconds * float64(time.Second))
	txns, err := d.openLoop(S, dur)
	qmean, qmax := tr.stop()
	if err != nil {
		return nil, err
	}
	cl.quiesce()
	delta := cl.counters().sub(before)
	var storeSpans [][]storeSpan
	for _, st := range cl.stores {
		storeSpans = append(storeSpans, st.takeSpans())
	}

	bad, err := verify(cl, w, txns)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	// Restart every site from its WAL several times, restartGap apart;
	// recovery replays the same log each time, and recovery.restart_s
	// is the median.
	var recoveries []float64
	var records int
	for k := 0; k < restartRepeats; k++ {
		if k > 0 {
			time.Sleep(restartGap) //lint:walltime spaces restarts on the real clock
		}
		var took time.Duration
		took, records, err = cl.restart()
		if err != nil {
			return nil, fmt.Errorf("restart: %w", err)
		}
		recoveries = append(recoveries, took.Seconds())
	}
	recoverDur := time.Duration(median(recoveries) * float64(time.Second))
	badAfter, err := verify(cl, w, txns)
	if err != nil {
		return nil, fmt.Errorf("verify after restart: %w", err)
	}
	for _, b := range badAfter {
		bad = append(bad, "after restart: "+b)
	}

	s := summarize(txns)
	rep := &report{}
	rep.Attempted = len(txns)
	rep.Failed = s.failed
	rep.Correct = len(bad) == 0 && len(txns) > 0
	rep.endToEnd = map[string]metric{
		"p50_ms":       {ms(s.p50), "ms"},
		"p50_ms.2pc":   {ms(s.protoP50[0]), "ms"},
		"p50_ms.nb":    {ms(s.protoP50[1]), "ms"},
		"p50_ms.paxos": {ms(s.protoP50[2]), "ms"},
		"commit_frac":  {float64(s.committed) / float64(len(txns)), "frac"},
		"setup_s":      {median(setups), "s"},
	}
	rep.perLayer = perLayer(txns, delta, storeSpans, s, recoverDur, records, qmean, qmax)

	for _, b := range limit(bad, 10) {
		fmt.Fprintf(out, "VIOLATION %s\n", b)
	}
	if len(bad) > 10 {
		fmt.Fprintf(out, "VIOLATION ... %d in all\n", len(bad))
	}
	s.print(out)
	fmt.Fprintf(out, "setup_s is the median of %.4f s; recovery.restart_s of %.4f s\n", setups, recoveries)
	if slip := rep.perLayer["load.timer_slip_us"].Value; slip > slipBound*s.p50.Seconds()*1e6 {
		fmt.Fprintf(out, "GENERATOR-BOUND: median timer slip %.0f us exceeds %.0f%% of p50; this run measures the generator, not the system\n",
			slip, slipBound*100)
	}
	if o.trace {
		path, err := writeSpans(o, txns, storeSpans, d.base)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans: %s\n", path)
		printMetrics(out, "per-layer", rep.perLayer)
		rep.Metrics = rep.perLayer
	} else {
		printMetrics(out, "end-to-end", rep.endToEnd)
		rep.Metrics = rep.endToEnd
	}
	return rep, nil
}

// slipBound is the share of p50 latency beyond which timer slip flags
// a run as measuring the generator: lateness that large could move
// p50_ms by a sizeable part of its bound on its own.
const slipBound = 0.1

// setup boots a cluster under dir, preloads it, dials every pool and
// runs the warm-up transactions.
func setup(dir string, w workload, seed int64, S int, tr *tracer) (*cluster, error) {
	cl, err := bootCluster(dir, S, tr)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*cluster, error) {
		cl.close()
		return nil, err
	}
	if w.preload > 0 {
		errs := make(chan error, nsites)
		for _, p := range cl.pools {
			//lint:rawgo preload sessions are benchmark clients, outside the program
			go func(p *ctl.Pool) { errs <- preloadSite(p, w.preload, 100) }(p)
		}
		for range cl.pools {
			if err := <-errs; err != nil {
				return fail(err)
			}
		}
	}
	if err := cl.dial(); err != nil {
		return fail(err)
	}
	warm := &driver{cl: cl, w: w, seed: seed}
	for _, t := range warm.closedLoop(S, "w", warmTxns) {
		if t.outcome != committed {
			return fail(fmt.Errorf("warm-up txn %d: %v", t.idx, t.err))
		}
	}
	return cl, nil
}

// now is the benchmark's clock. The benchmark times the real runtime
// from outside and never runs under the simulation kernel.
func now() time.Time {
	return time.Now() //lint:walltime the benchmark times the real runtime from outside
}

func limit(s []string, n int) []string {
	if len(s) > n {
		return s[:n]
	}
	return s
}

func printMetrics(out io.Writer, title string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "%s metrics:\n", title)
	for _, k := range names {
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	return s[(len(s)-1)/2]
}
