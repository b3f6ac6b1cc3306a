package main

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"camelot/camelot"
	"camelot/internal/ctl"
	"camelot/internal/load"
)

// protocols is the commit protocol cycle: arrival i commits under
// protocols[i%3].
var protocols = [3]string{"2pc", "nb", "paxos"}

// workload is one traffic mix. Every transaction touches two sites:
// its session's site coordinates it, and the next site participates.
type workload struct {
	name string
	// rate is the open-loop arrival rate in txn/s.
	rate float64
	// preload is the number of keys loaded into each site before the
	// run; reads and read-mix updates draw from them.
	preload int
	// plan returns what arrival idx does. ns keeps warm-up keys apart
	// from measured ones.
	plan func(seed int64, ns string, idx int) plan
}

// plan is one transaction: one access at the coordinator (keys[0])
// and one at the participant (keys[1]).
type plan struct {
	write bool
	keys  [2]string
}

// Hot-set shape of read-mix: half of all accesses go to the hottest
// 1% of each site's keys.
const (
	readMixKeys    = 2000
	readMixHot     = readMixKeys / 100
	readMixHotFrac = 0.5
	readMixWrites  = 0.1
)

// workloads are the benchmark's traffic mixes; BENCHMARK.json gives
// the reason for each. Both are open loops well below the knee: two
// back-to-back sessions sustain about 1300 txn/s of update traffic.
// update runs at 150 txn/s: at 300 txn/s its eight fsyncs per
// transaction put it close enough to the knee that a spell of slow
// disk on a shared host multiplies its latency several times.
// read-mix, which barely writes the log, runs at 300 txn/s.
var workloads = map[string]workload{
	"update": {
		name: "update",
		rate: 150,
		plan: freshUpdate,
	},
	"read-mix": {
		name:    "read-mix",
		rate:    300,
		preload: readMixKeys,
		plan:    readMix,
	},
}

// freshUpdate writes two keys no other transaction touches, so there
// is no contention.
func freshUpdate(_ int64, ns string, idx int) plan {
	return plan{write: true, keys: [2]string{
		fmt.Sprintf("%s%d.c", ns, idx),
		fmt.Sprintf("%s%d.p", ns, idx),
	}}
}

// readMix draws one preloaded key per site, half of the time from the
// hot set; one transaction in ten writes them back with their
// preloaded values, so every read must still return its preloaded
// value while writers and readers contend for locks.
func readMix(seed int64, _ string, idx int) plan {
	r := mix(uint64(seed), uint64(idx))
	p := plan{write: unit(r.next()) < readMixWrites}
	for i := range p.keys {
		var k int
		if unit(r.next()) < readMixHotFrac {
			k = int(r.next() % readMixHot)
		} else {
			k = readMixHot + int(r.next()%(readMixKeys-readMixHot))
		}
		p.keys[i] = preloadKey(k)
	}
	return p
}

func preloadKey(k int) string { return fmt.Sprintf("r%d", k) }

// valueOf is the value every write stores under key, and the value a
// read of key must return.
func valueOf(key string) []byte { return []byte("v:" + key) }

// splitmix is a per-arrival random stream: arrival idx draws the same
// numbers for a seed however the run is timed.
type splitmix struct{ s uint64 }

func mix(seed, idx uint64) *splitmix { return &splitmix{s: seed*0x9e3779b97f4a7c15 ^ idx} }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Transaction outcomes.
const (
	committed = iota
	aborted
	failedOp // a ctl call failed: unavailable node, timeout, routing error
)

// txn is one executed transaction and what the benchmark observed of
// it. Times are offsets from the run's start.
type txn struct {
	idx               int
	plan              plan
	due, start, end   time.Duration
	idle              bool // the session was waiting when idx came due
	outcome           int
	err               error
	badReads          []string
	calls             int
	spans             []callSpan // traced transactions only
	coordIdx, partIdx int
}

// callSpan is one ctl call, a child span of its transaction.
type callSpan struct {
	op         string
	start, end time.Duration
}

func (t *txn) latency() time.Duration { return t.end - t.due }

// driver runs transactions against a cluster over ctl.
type driver struct {
	cl   *cluster
	w    workload
	seed int64
	// tr, when set, records the ctl call spans of every transaction
	// due in a traced block.
	tr   *tracer
	base time.Time
}

func (d *driver) since() time.Duration { return now().Sub(d.base) }

// run executes arrival idx as session sess and fills t.
func (d *driver) run(sess, idx int, ns string, t *txn) {
	t.idx = idx
	t.plan = d.w.plan(d.seed, ns, idx)
	t.coordIdx = sess % nsites
	t.partIdx = (t.coordIdx + 1) % nsites
	trace := d.tr != nil && tracedAt(t.due)
	call := func(op string, f func() error) error {
		t.calls++
		if !trace {
			return f()
		}
		s := d.since()
		err := f()
		t.spans = append(t.spans, callSpan{op: op, start: s, end: d.since()})
		return err
	}
	t.outcome, t.err = d.exec(t, call)
}

func (d *driver) exec(t *txn, call func(string, func() error) error) (int, error) {
	coordPool, partPool := d.cl.pools[t.coordIdx], d.cl.pools[t.partIdx]
	coord, err := coordPool.Get()
	if err != nil {
		return failedOp, err
	}
	defer coordPool.Put(coord)
	part, err := partPool.Get()
	if err != nil {
		return failedOp, err
	}
	defer partPool.Put(part)

	var tid camelot.TID
	if err := call("begin", func() (err error) { tid, err = coord.Begin(); return err }); err != nil {
		return failedOp, err
	}
	for i, cl := range [2]*ctl.Client{coord, part} {
		key := t.plan.keys[i]
		var err error
		if t.plan.write {
			err = call("write", func() error { return cl.Write("store", tid, key, valueOf(key)) })
		} else {
			err = call("read", func() error {
				v, err := cl.Read("store", tid, key)
				if err == nil && !bytes.Equal(v, valueOf(key)) {
					t.badReads = append(t.badReads, fmt.Sprintf("%s=%q", key, v))
				}
				return err
			})
		}
		if err != nil {
			call("abort", func() error { return coord.Abort(tid) }) //nolint:errcheck // already failing
			return failedOp, err
		}
	}
	site := d.cl.nodes[t.partIdx].ID()
	if err := call("addsites", func() error { return coord.AddSites(tid, []camelot.SiteID{site}) }); err != nil {
		call("abort", func() error { return coord.Abort(tid) }) //nolint:errcheck // already failing
		return failedOp, err
	}
	err = call("commit", func() error {
		_, err := coord.CommitWith(tid, protocols[t.idx%len(protocols)])
		return err
	})
	switch {
	case err == nil:
		return committed, nil
	case errors.Is(err, ctl.ErrAborted):
		return aborted, err
	default:
		return failedOp, err
	}
}

// openLoop runs the seeded Poisson schedule load.Arrivals draws for
// rate and dur, striped over the sessions as load.Run stripes it:
// session s runs arrivals s, s+S, s+2S… in order. A transaction's
// latency runs from its intended arrival, so a stall is charged to
// every arrival it delays.
func (d *driver) openLoop(sessions int, dur time.Duration) ([]txn, error) {
	arr, err := load.Arrivals(load.DistPoisson, d.seed, d.w.rate, dur)
	if err != nil {
		return nil, err
	}
	timers := make([]*timer, sessions)
	for s := range timers {
		if timers[s], err = newTimer(); err != nil {
			return nil, err
		}
		defer timers[s].close()
	}
	out := make([]txn, len(arr))
	errs := make([]error, sessions)
	d.base = now()
	d.tr.start(d.base, d.cl)
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		//lint:rawgo a client session of the benchmark, outside the program
		go func(s int) {
			defer wg.Done()
			for i := s; i < len(arr); i += sessions {
				t := &out[i]
				t.due = arr[i]
				if w := t.due - d.since(); w > 0 {
					if errs[s] = timers[s].sleep(w); errs[s] != nil {
						return
					}
					t.idle = true
				}
				t.start = d.since()
				d.run(s, i, "u", t)
				t.end = d.since()
			}
		}(s)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// closedLoop runs limit transactions in every session, back to back;
// session s runs arrivals s, s+S, s+2S…, and a transaction's latency
// runs from when its session issued it. Set-up warms the cluster up
// with it.
func (d *driver) closedLoop(sessions int, ns string, limit int) []txn {
	per := make([][]txn, sessions)
	d.base = now()
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		//lint:rawgo a client session of the benchmark, outside the program
		go func(s int) {
			defer wg.Done()
			for k := 0; k < limit; k++ {
				start := d.since()
				t := txn{due: start, start: start}
				d.run(s, s+k*sessions, ns, &t)
				t.end = d.since()
				per[s] = append(per[s], t)
			}
		}(s)
	}
	wg.Wait()
	var out []txn
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// preloadSite writes every preloaded key at one site, in local
// transactions of batch keys each.
func preloadSite(p *ctl.Pool, keys, batch int) error {
	cl, err := p.Get()
	if err != nil {
		return err
	}
	defer p.Put(cl)
	for lo := 0; lo < keys; lo += batch {
		t, err := cl.Begin()
		if err != nil {
			return err
		}
		for k := lo; k < lo+batch && k < keys; k++ {
			key := preloadKey(k)
			if err := cl.Write("store", t, key, valueOf(key)); err != nil {
				return fmt.Errorf("preload %s: %w", key, err)
			}
		}
		if _, err := cl.CommitWith(t, protocols[0]); err != nil {
			return fmt.Errorf("preload commit: %w", err)
		}
	}
	return nil
}
