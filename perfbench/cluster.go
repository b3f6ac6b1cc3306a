package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"camelot/camelot"
	"camelot/internal/ctl"
	"camelot/internal/wal"
)

// nsites is the cluster size every workload runs on.
const nsites = 3

// callTimeout bounds each ctl exchange, as in load.StartCluster.
const callTimeout = 5 * time.Second

// cluster is a three-site in-process deployment assembled the way
// load.StartCluster assembles its own (DefaultRealConfig per site, an
// on-disk WAL per site, loopback UDP, one ctl server and one ctl pool
// per site), so its figures stay comparable with the loadgen reports.
// It adds what the benchmark needs from outside the program: a timed
// wrapper around each site's log store, and restart from the WALs.
type cluster struct {
	dir      string
	sessions int
	stores   []*timedStore // one per site; kept across restarts
	nodes    []*camelot.RealNode
	ctls     []*ctl.Server
	pools    []*ctl.Pool
}

// bootCluster starts a fresh cluster whose WALs live under dir. Its
// log stores keep a span of every append while tr is on.
func bootCluster(dir string, sessions int, tr *tracer) (*cluster, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c := &cluster{dir: dir, sessions: sessions}
	for i := 0; i < nsites; i++ {
		c.stores = append(c.stores, &timedStore{tr: tr})
	}
	if err := c.startNodes(); err != nil {
		c.close()
		return nil, err
	}
	if err := c.serve(); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

// startNodes boots every site from its WAL and recovers it, then
// meshes the sites over UDP; restart times exactly this.
func (c *cluster) startNodes() error {
	for i := 0; i < nsites; i++ {
		id := camelot.SiteID(i + 1)
		cfg := camelot.DefaultRealConfig(id)
		cfg.WALPath = filepath.Join(c.dir, fmt.Sprintf("site%d.wal", id))
		st := c.stores[i]
		cfg.WrapStore = func(s wal.Store) wal.Store {
			st.setInner(s)
			return st
		}
		n, err := camelot.StartRealNode(cfg)
		if err != nil {
			return err
		}
		c.nodes = append(c.nodes, n)
		if err := n.Recover(); err != nil {
			return fmt.Errorf("recover site %d: %w", id, err)
		}
	}
	for _, a := range c.nodes {
		for _, b := range c.nodes {
			if a != b {
				if err := a.AddPeer(b.ID(), b.Addr()); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// serve opens the control plane: a ctl server and a lazily dialing
// pool per site.
func (c *cluster) serve() error {
	for _, n := range c.nodes {
		s, err := ctl.Serve(n, "127.0.0.1:0")
		if err != nil {
			return err
		}
		c.ctls = append(c.ctls, s)
		c.pools = append(c.pools, ctl.NewPool(s.Addr(), callTimeout, c.sessions))
	}
	return nil
}

// close stops pools, ctl servers and nodes, as a crash would: the
// WAL files stay for the next start.
func (c *cluster) close() {
	for _, p := range c.pools {
		p.Close() //nolint:errcheck // teardown
	}
	for _, s := range c.ctls {
		s.Close() //nolint:errcheck // teardown
	}
	for _, n := range c.nodes {
		n.Close() //nolint:errcheck // teardown
	}
	c.pools, c.ctls, c.nodes = nil, nil, nil
}

// restart stops every site and starts it again from its WAL. It
// returns the time StartRealNode, Recover and the peer mesh took at
// all three sites, and the number of log records recovery read.
func (c *cluster) restart() (time.Duration, int, error) {
	c.close()
	t0 := now()
	if err := c.startNodes(); err != nil {
		return 0, 0, err
	}
	d := now().Sub(t0)
	records := 0
	for _, st := range c.stores {
		records += st.lastBlocks()
	}
	return d, records, c.serve()
}

// dial fills every pool with one idle connection per session, so the
// measured window never pays for a dial.
func (c *cluster) dial() error {
	for _, p := range c.pools {
		var held []*ctl.Client
		for i := 0; i < c.sessions; i++ {
			cl, err := p.Get()
			if err != nil {
				return err
			}
			held = append(held, cl)
		}
		for _, cl := range held {
			p.Put(cl)
		}
	}
	return nil
}

// counters is a snapshot of every public counter the layers expose,
// plus the process's own CPU and allocation figures.
type counters struct {
	appends, batches       int // wal.Log records, and what LogStats calls device writes
	storeAppends           int // Store.Append calls
	storeBusy              time.Duration
	sent, recv, dropped    int // transport datagrams
	retransmits, inquiries int
	acksPiggy, acksAlone   int
	lockWaits              int
	lockWait               time.Duration
	dials                  int
	cpu                    time.Duration
	mallocs, allocBytes    uint64
	gcPause                time.Duration
}

func (c *cluster) counters() counters {
	var k counters
	for i, n := range c.nodes {
		a, w := n.LogStats()
		k.appends += a
		k.batches += w
		s, r, d := n.Peer().Stats()
		k.sent += s
		k.recv += r
		k.dropped += d
		ts := n.TM().Stats()
		k.retransmits += ts.Retransmits
		k.inquiries += ts.Inquiries
		k.acksPiggy += ts.AcksPiggybacked
		k.acksAlone += ts.AcksStandalone
		lw, ld := n.Server("store").Locks().Waits()
		k.lockWaits += lw
		k.lockWait += ld
		sa, sb := c.stores[i].stats()
		k.storeAppends += sa
		k.storeBusy += sb
	}
	for _, p := range c.pools {
		k.dials += p.Dials()
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		k.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	k.mallocs, k.allocBytes, k.gcPause = memStats()
	return k
}

// sub returns the counts accrued between then and k.
func (k counters) sub(then counters) counters {
	return counters{
		appends:      k.appends - then.appends,
		batches:      k.batches - then.batches,
		storeAppends: k.storeAppends - then.storeAppends,
		storeBusy:    k.storeBusy - then.storeBusy,
		sent:         k.sent - then.sent,
		recv:         k.recv - then.recv,
		dropped:      k.dropped - then.dropped,
		retransmits:  k.retransmits - then.retransmits,
		inquiries:    k.inquiries - then.inquiries,
		acksPiggy:    k.acksPiggy - then.acksPiggy,
		acksAlone:    k.acksAlone - then.acksAlone,
		lockWaits:    k.lockWaits - then.lockWaits,
		lockWait:     k.lockWait - then.lockWait,
		dials:        k.dials - then.dials,
		cpu:          k.cpu - then.cpu,
		mallocs:      k.mallocs - then.mallocs,
		allocBytes:   k.allocBytes - then.allocBytes,
		gcPause:      k.gcPause - then.gcPause,
	}
}

// quiesce waits until the WAL and transport counters have stood still
// for 100 ms, so lazily written log records and delayed acks of the
// work just done land before a snapshot. It gives up after 5 s.
func (c *cluster) quiesce() {
	fingerprint := func() [4]int {
		k := c.counters()
		return [4]int{k.appends, k.storeAppends, k.sent, k.recv}
	}
	last, stable := fingerprint(), 0
	for deadline := now().Add(5 * time.Second); stable < 10 && now().Before(deadline); {
		time.Sleep(10 * time.Millisecond) //lint:walltime polls the real runtime from outside
		if f := fingerprint(); f == last {
			stable++
		} else {
			last, stable = f, 0
		}
	}
}

// timedStore wraps a site's wal.Store: it counts and times every
// Append (a write plus an fsync on FileStore) and remembers how many
// blocks the last Blocks call returned, which is what recovery reads.
type timedStore struct {
	tr *tracer

	mu      sync.Mutex
	inner   wal.Store
	appends int
	busy    time.Duration
	spans   []storeSpan
	blocks  int
}

// storeSpan is one Store.Append call.
type storeSpan struct {
	start time.Time
	dur   time.Duration
}

func (s *timedStore) setInner(st wal.Store) {
	s.mu.Lock()
	s.inner = st
	s.mu.Unlock()
}

func (s *timedStore) store() wal.Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inner
}

func (s *timedStore) Append(block []byte) error {
	st := s.store()
	t0 := now()
	err := st.Append(block)
	d := now().Sub(t0)
	s.mu.Lock()
	s.appends++
	s.busy += d
	if s.tr.on(t0) {
		s.spans = append(s.spans, storeSpan{start: t0, dur: d})
	}
	s.mu.Unlock()
	return err
}

func (s *timedStore) Blocks() ([][]byte, error) {
	b, err := s.store().Blocks()
	s.mu.Lock()
	s.blocks = len(b)
	s.mu.Unlock()
	return b, err
}

func (s *timedStore) Truncate(n int) error { return s.store().Truncate(n) }
func (s *timedStore) DropTail(n int) error { return s.store().DropTail(n) }

func (s *timedStore) stats() (int, time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appends, s.busy
}

func (s *timedStore) lastBlocks() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.blocks
}

// takeSpans returns the spans recorded since the last call and
// forgets them.
func (s *timedStore) takeSpans() []storeSpan {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.spans
	s.spans = nil
	return out
}
