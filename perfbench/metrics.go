package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// summary is the end-to-end view of one run's transactions.
type summary struct {
	committed, failed int // failed counts errors and aborts
	elapsed           time.Duration
	lat               []time.Duration // sorted
	p50               time.Duration
	protoLat          [len(protocols)][]time.Duration // sorted
	protoP50          [len(protocols)]time.Duration
	perSecond         []int // commits by the whole second they ended in
	firstErr          error
}

func summarize(txns []txn) summary {
	var s summary
	for i := range txns {
		t := &txns[i]
		if t.outcome == committed {
			s.committed++
			sec := int(t.end / time.Second)
			for len(s.perSecond) <= sec {
				s.perSecond = append(s.perSecond, 0)
			}
			s.perSecond[sec]++
		} else {
			s.failed++
			if s.firstErr == nil {
				s.firstErr = fmt.Errorf("txn %d: %w", t.idx, t.err)
			}
		}
		if t.end > s.elapsed {
			s.elapsed = t.end
		}
		s.lat = append(s.lat, t.latency())
		p := t.idx % len(protocols)
		s.protoLat[p] = append(s.protoLat[p], t.latency())
	}
	sortDurations(s.lat)
	s.p50 = quantile(s.lat, 0.5)
	for p := range s.protoLat {
		sortDurations(s.protoLat[p])
		s.protoP50[p] = quantile(s.protoLat[p], 0.5)
	}
	return s
}

// print writes the latency table, with p99 and its sample counts for
// information, and the failure share.
func (s summary) print(out io.Writer) {
	row := func(name string, lat []time.Duration) {
		fmt.Fprintf(out, "  %-6s n=%-6d p50 %8.3f ms  p99 %8.3f ms (%d samples above)  max %8.3f ms\n",
			name, len(lat), ms(quantile(lat, 0.5)), ms(quantile(lat, 0.99)), above(lat, 0.99), ms(quantile(lat, 1)))
	}
	fmt.Fprintf(out, "latency (exact, from every sample):\n")
	row("all", s.lat)
	for p, name := range protocols {
		row(name, s.protoLat[p])
	}
	fmt.Fprintf(out, "fail_frac %.6f (%d of %d); goodput %.1f/s; per second %v\n",
		div(float64(s.failed), float64(len(s.lat))), s.failed, len(s.lat), float64(s.committed)/s.elapsed.Seconds(), s.perSecond)
	if s.firstErr != nil {
		fmt.Fprintf(out, "first failure: %v\n", s.firstErr)
	}
}

// perLayer derives every per-layer metric from the run's
// transactions, their spans, the counter deltas of the measured
// window and the restart.
func perLayer(txns []txn, k counters, store [][]storeSpan, s summary, recoverDur time.Duration, records int, qmean, qmax float64) map[string]metric {
	n := float64(len(txns))
	ops := map[string][]time.Duration{}
	var calls int
	var tracedLat, plainLat, waits, slips []time.Duration
	var total, accounted time.Duration
	for i := range txns {
		t := &txns[i]
		calls += t.calls
		waits = append(waits, t.start-t.due)
		if t.idle {
			slips = append(slips, t.start-t.due)
		}
		if t.spans == nil {
			plainLat = append(plainLat, t.latency())
			continue
		}
		tracedLat = append(tracedLat, t.latency())
		total += t.latency()
		accounted += t.start - t.due
		for _, sp := range t.spans {
			ops[sp.op] = append(ops[sp.op], sp.end-sp.start)
			accounted += sp.end - sp.start
		}
	}
	var appendDur []time.Duration
	for _, site := range store {
		for _, sp := range site {
			appendDur = append(appendDur, sp.dur)
		}
	}
	med := func(d []time.Duration) float64 {
		sortDurations(d)
		return us(quantile(d, 0.5))
	}
	m := map[string]metric{
		"ctl.calls_per_txn":          {div(float64(calls), n), "calls/txn"},
		"ctl.dials":                  {float64(k.dials), "count"},
		"wal.appends_per_txn":        {div(float64(k.appends), n), "records/txn"},
		"wal.batches_per_txn":        {div(float64(k.batches), n), "batches/txn"},
		"wal.store_appends_per_txn":  {div(float64(k.storeAppends), n), "calls/txn"},
		"wal.store_append_us":        {med(appendDur), "us"},
		"wal.store_busy_frac":        {div(k.storeBusy.Seconds(), s.elapsed.Seconds()*nsites), "frac"},
		"transport.sent_per_txn":     {div(float64(k.sent), n), "dgrams/txn"},
		"transport.recv_per_txn":     {div(float64(k.recv), n), "dgrams/txn"},
		"transport.dropped":          {float64(k.dropped), "count"},
		"core.retransmits_per_ktxn":  {div(1000*float64(k.retransmits), n), "1/ktxn"},
		"core.inquiries_per_ktxn":    {div(1000*float64(k.inquiries), n), "1/ktxn"},
		"core.acks_piggybacked_frac": {div(float64(k.acksPiggy), float64(k.acksPiggy+k.acksAlone)), "frac"},
		"core.queue_depth_mean":      {qmean, "requests"},
		"core.queue_depth_max":       {qmax, "requests"},
		"lockmgr.waits_per_ktxn":     {div(1000*float64(k.lockWaits), n), "1/ktxn"},
		"lockmgr.wait_us_per_txn":    {div(us(k.lockWait), n), "us/txn"},
		"recovery.records":           {float64(records), "count"},
		"recovery.restart_s":         {recoverDur.Seconds(), "s"},
		"recovery.us_per_record":     {div(us(recoverDur), float64(records)), "us"},
		"proc.cpu_us_per_txn":        {div(us(k.cpu), n), "us/txn"},
		"proc.mallocs_per_txn":       {div(float64(k.mallocs), n), "allocs/txn"},
		"proc.alloc_bytes_per_txn":   {div(float64(k.allocBytes), n), "B/txn"},
		"proc.gc_pause_ms":           {ms(k.gcPause), "ms"},
		"load.client_wait_us":        {med(waits), "us"},
		"load.timer_slip_us":         {med(slips), "us"},
	}
	// split.unaccounted_frac is the share of traced latency that
	// neither the generator's wait nor any ctl call covers: the
	// paper's "no extra or missing time", at the benchmark's edge.
	// trace.overhead_frac compares the median of the transactions
	// due in traced blocks with that of those due in untraced blocks,
	// where every kind of tracing was off.
	var unaccounted, overhead float64
	if total > 0 {
		unaccounted = 1 - float64(accounted)/float64(total)
	}
	if len(tracedLat) > 0 && len(plainLat) > 0 {
		overhead = div(med(tracedLat), med(plainLat)) - 1
	}
	m["split.unaccounted_frac"] = metric{unaccounted, "frac"}
	m["trace.overhead_frac"] = metric{overhead, "frac"}
	for _, op := range []string{"begin", "write", "read", "addsites", "commit"} {
		m["ctl."+op+"_us"] = metric{med(ops[op]), "us"}
	}
	return m
}

// writeSpans writes the traced run's spans, one JSON object a line:
// each traced transaction (id = arrival index), its ctl calls (parent
// = that id), and every Store.Append per site. Times are microseconds
// from the start of the measured window.
func writeSpans(o options, txns []txn, store [][]storeSpan, base time.Time) (string, error) {
	dir := filepath.Join(o.workDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for i := range txns {
		t := &txns[i]
		if t.spans == nil {
			continue
		}
		fmt.Fprintf(w, `{"span":"txn","id":%d,"protocol":%q,"coordinator":%d,"due_us":%.1f,"start_us":%.1f,"end_us":%.1f,"outcome":%d}`+"\n",
			t.idx, protocols[t.idx%len(protocols)], t.coordIdx+1, us(t.due), us(t.start), us(t.end), t.outcome)
		for _, sp := range t.spans {
			fmt.Fprintf(w, `{"span":"ctl","parent":%d,"op":%q,"start_us":%.1f,"end_us":%.1f}`+"\n",
				t.idx, sp.op, us(sp.start), us(sp.end))
		}
	}
	for site, spans := range store {
		for _, sp := range spans {
			start := sp.start.Sub(base)
			fmt.Fprintf(w, `{"span":"store.append","site":%d,"start_us":%.1f,"end_us":%.1f}`+"\n",
				site+1, us(start), us(start+sp.dur))
		}
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}

func memStats() (mallocs, allocBytes uint64, gcPause time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc, time.Duration(ms.PauseTotalNs)
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// quantile is the nearest-rank q-quantile of sorted samples: an
// actual sample, never above the maximum.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// above counts the samples strictly beyond the q-quantile.
func above(sorted []time.Duration, q float64) int {
	v := quantile(sorted, q)
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
