// Command camelot-cluster deploys and torments a real multi-process
// Camelot cluster: it spawns one camelot-node per site on loopback,
// drives a seeded distributed-transaction workload through their
// control ports — two-phase, non-blocking, and Paxos commits,
// read-only participants, randomized write sets — SIGKILLs a
// subordinate mid-run (or, with -kill-mid-commit, a coordinator with
// its own commit in flight), restarts it against its surviving
// write-ahead log, and then checks the recovery oracle's invariants
// (atomicity, client view, outcome agreement, liveness) over the
// control plane. With -bounce it finally SIGKILLs and restarts every
// node and checks again: updates that survive that pass were
// genuinely on disk.
//
// This is the chaos explorer's discipline applied to real processes:
// same invariants, same oracle, but real UDP loss-and-reorder, real
// fsync, real SIGKILL.
//
//	camelot-cluster -nodes 3 -txns 200 -seed 1
//
// With -netem FILE the driver instead replays a netem/v1 schedule
// (internal/netem) against the cluster: every UDP link is interposed
// through an emulator proxy applying the schedule's drop, duplication,
// reordering, delay-jitter, and partition windows, while the schedule's
// process faults (kill, stop, cont, restart) and WAL disk faults land
// on the same clock. After the fault phase the driver heals the
// cluster — continues frozen processes, restarts dead ones, removes
// the proxies from the path — and checks the same oracle invariants,
// plus an optional pinned bound on total retransmits+inquiries
// (-max-retry), the budget the exponential backoff must keep.
//
//	camelot-cluster -nodes 3 -netem testdata/netem-smoke.json -max-retry 4000
//
// Exit status is nonzero if any invariant was violated.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"camelot/camelot"
	"camelot/internal/ctl"
	"camelot/internal/oracle"
	"camelot/internal/shardmap"
)

// ReportSchema identifies the -json output format.
const ReportSchema = "camelot-cluster/v1"

func main() {
	cfg := clusterConfig{}
	flag.IntVar(&cfg.Nodes, "nodes", 3, "number of sites")
	flag.IntVar(&cfg.Txns, "txns", 200, "workload transactions")
	flag.Int64Var(&cfg.Seed, "seed", 1, "workload seed")
	flag.StringVar(&cfg.NodeBin, "node", "", "camelot-node binary (built with 'go build' when empty)")
	flag.StringVar(&cfg.Protocol, "protocol", "", "commit protocol for every transaction: 2pc, nb, or paxos (empty: per-txn random mix)")
	flag.IntVar(&cfg.Shards, "shards", 0, "shard the keyspace into N shards round-robin over the sites and drive a keyspace-aware workload (0: legacy single-server workload)")
	flag.BoolVar(&cfg.JSON, "json", false, "emit a JSON report on stdout")
	flag.BoolVar(&cfg.Bounce, "bounce", true, "after the run, kill and restart every node and re-check durability")
	flag.BoolVar(&cfg.Kill, "kill", true, "SIGKILL a subordinate mid-run and restart it later")
	flag.BoolVar(&cfg.KillMidCommit, "kill-mid-commit", false, "make the killed site the coordinator and SIGKILL it during its own commit")
	flag.DurationVar(&cfg.Retry, "retry", 50*time.Millisecond, "node retry interval")
	netemFile := flag.String("netem", "", "netem/v1 schedule file: run the network-fault-emulation mode instead of the legacy kill/restart workload")
	retryCap := flag.Duration("retry-cap", 0, "netem mode: node retry-backoff cap (0: the node default)")
	opTimeout := flag.Duration("op-timeout", 3*time.Second, "netem mode: per-control-call deadline")
	maxRetry := flag.Int("max-retry", 0, "netem mode: pinned bound on total retransmits+inquiries; exceeding it is a violation (0: unbounded)")
	flag.Parse()

	if *netemFile != "" {
		nrep, err := runNetem(netemConfig{
			ScheduleFile: *netemFile,
			Nodes:        cfg.Nodes,
			Seed:         cfg.Seed,
			Protocol:     cfg.Protocol,
			NodeBin:      cfg.NodeBin,
			Retry:        cfg.Retry,
			RetryCap:     *retryCap,
			OpTimeout:    *opTimeout,
			MaxRetry:     *maxRetry,
			JSON:         cfg.JSON,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "camelot-cluster:", err)
			os.Exit(1)
		}
		if cfg.JSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			enc.Encode(nrep) //nolint:errcheck // stdout
		} else {
			nrep.print(os.Stderr)
		}
		if len(nrep.Violations) > 0 {
			os.Exit(1)
		}
		return
	}

	rep, err := runCluster(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "camelot-cluster:", err)
		os.Exit(1)
	}
	if cfg.JSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(rep) //nolint:errcheck // stdout
	} else {
		rep.print(os.Stderr)
	}
	if len(rep.Violations) > 0 {
		os.Exit(1)
	}
}

type clusterConfig struct {
	Nodes int
	Txns  int
	Seed  int64
	// Protocol pins every commit to one protocol ("2pc", "nb",
	// "paxos"); empty keeps the legacy per-transaction random mix.
	Protocol string
	NodeBin  string
	JSON     bool
	Bounce   bool
	Kill     bool
	// KillMidCommit aims the SIGKILL at a coordinator in flight: the
	// victim site coordinates an all-site transaction and dies a
	// moment after its commit call is issued. The survivors must then
	// resolve the transaction on their own — the non-blocking property
	// Paxos Commit exists for.
	KillMidCommit bool
	Retry         time.Duration
	// Shards, when positive, shards the keyspace: every node gets
	// -shards/-sites, the driver checks map agreement over ctl, and
	// the workload becomes keyspace-aware — writes routed to shard
	// home sites, participant sets derived from the shards touched,
	// uniform keys plus a hot-key skew, verified by the cross-shard
	// atomicity oracle.
	Shards int
}

// report is the run's outcome summary.
type report struct {
	Schema     string   `json:"schema"`
	Nodes      int      `json:"nodes"`
	Txns       int      `json:"txns"`
	Seed       int64    `json:"seed"`
	Protocol   string   `json:"protocol,omitempty"`
	Committed  int      `json:"committed"`
	Aborted    int      `json:"aborted"`
	Unknown    int      `json:"unknown"`
	Skipped    int      `json:"skipped"`
	Killed     int      `json:"killed_site"`
	Sent       int      `json:"datagrams_sent"`
	Recv       int      `json:"datagrams_received"`
	Dropped    int      `json:"datagrams_dropped"`
	Oversize   int      `json:"oversize_refusals"`
	Violations []string `json:"violations"`
	// Sharded-workload fields; omitted (legacy report unchanged) when
	// -shards is off.
	Shards              int `json:"shards,omitempty"`
	CrossShard          int `json:"cross_shard,omitempty"`
	CrossShardCommitted int `json:"cross_shard_committed,omitempty"`
}

func (r *report) print(w *os.File) {
	fmt.Fprintf(w, "camelot-cluster: %d nodes, %d txns, seed %d\n", r.Nodes, r.Txns, r.Seed)
	if r.Shards > 0 {
		fmt.Fprintf(w, "  sharding: %d shards; %d cross-shard txns, %d committed\n",
			r.Shards, r.CrossShard, r.CrossShardCommitted)
	}
	fmt.Fprintf(w, "  outcomes: %d committed, %d aborted, %d unknown, %d skipped\n",
		r.Committed, r.Aborted, r.Unknown, r.Skipped)
	fmt.Fprintf(w, "  transport: %d sent, %d received, %d dropped, %d oversize\n",
		r.Sent, r.Recv, r.Dropped, r.Oversize)
	if len(r.Violations) == 0 {
		fmt.Fprintf(w, "  oracle: all invariants hold\n")
		return
	}
	fmt.Fprintf(w, "  oracle: %d violations\n", len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(w, "    %s\n", v)
	}
}

// proc is one spawned camelot-node.
type proc struct {
	site    camelot.SiteID
	wal     string
	udpAddr string
	ctlAddr string
	cmd     *exec.Cmd
	client  *ctl.Client
	down    bool
	extra   []string // extra daemon flags, reused across restarts
}

// spawn starts a camelot-node and parses its READY line. listen and
// control are "127.0.0.1:0" on first start and the node's previous
// concrete addresses on a restart, so the rest of the cluster's peer
// maps stay valid across the bounce. extra flags (the shard map's
// -shards/-sites) are replayed verbatim on every incarnation.
func spawn(bin string, site camelot.SiteID, wal, listen, control string, retry time.Duration, extra ...string) (*proc, error) {
	args := []string{
		"-site", fmt.Sprint(uint32(site)),
		"-wal", wal,
		"-listen", listen,
		"-control", control,
		"-retry", retry.String(),
	}
	args = append(args, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start site %d: %w", site, err)
	}

	type ready struct {
		udp, ctl string
		err      error
	}
	ch := make(chan ready, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "READY ") {
				continue
			}
			var gotSite int
			var r ready
			if _, err := fmt.Sscanf(line, "READY site=%d udp=%s ctl=%s", &gotSite, &r.udp, &r.ctl); err != nil {
				r.err = fmt.Errorf("site %d: bad READY line %q: %v", site, line, err)
			}
			ch <- r
			return
		}
		ch <- ready{err: fmt.Errorf("site %d exited before READY (recovery failure?)", site)}
	}()

	select {
	case r := <-ch:
		if r.err != nil {
			cmd.Process.Kill() //nolint:errcheck // already failing
			cmd.Wait()         //nolint:errcheck // reap
			return nil, r.err
		}
		client, err := ctl.Dial(r.ctl)
		if err != nil {
			cmd.Process.Kill() //nolint:errcheck // already failing
			cmd.Wait()         //nolint:errcheck // reap
			return nil, err
		}
		return &proc{site: site, wal: wal, udpAddr: r.udp, ctlAddr: r.ctl, cmd: cmd, client: client, extra: extra}, nil
	case <-time.After(30 * time.Second):
		cmd.Process.Kill() //nolint:errcheck // already failing
		cmd.Wait()         //nolint:errcheck // reap
		return nil, fmt.Errorf("site %d: no READY within 30s", site)
	}
}

// kill SIGKILLs the node — the crash recovery exists for. The WAL
// file and the addresses survive for the next incarnation.
func (p *proc) kill() {
	if p.down {
		return
	}
	p.client.Close()     //nolint:errcheck // process is going away
	p.cmd.Process.Kill() //nolint:errcheck // SIGKILL is the point
	p.cmd.Wait()         //nolint:errcheck // reap
	p.down = true
}

// restart brings a killed node back on its previous addresses; the
// daemon replays the WAL before printing READY.
func (p *proc) restart(bin string, retry time.Duration) error {
	np, err := spawn(bin, p.site, p.wal, p.udpAddr, p.ctlAddr, retry, p.extra...)
	if err != nil {
		return err
	}
	*p = *np
	return nil
}

// stop terminates the node gracefully at the end of the run.
func (p *proc) stop() {
	if p.down {
		return
	}
	p.client.Close()                   //nolint:errcheck // shutting down
	p.cmd.Process.Signal(os.Interrupt) //nolint:errcheck // best effort
	done := make(chan struct{})
	go func() { p.cmd.Wait(); close(done) }() //nolint:errcheck // reap
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill() //nolint:errcheck // it had its chance
		<-done
	}
	p.down = true
}

// nodeBinary returns cfg.NodeBin, building the daemon into dir first
// when none was supplied.
func nodeBinary(cfg clusterConfig, dir string) (string, error) {
	if cfg.NodeBin != "" {
		return cfg.NodeBin, nil
	}
	bin := filepath.Join(dir, "camelot-node")
	build := exec.Command("go", "build", "-o", bin, "camelot/cmd/camelot-node")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return "", fmt.Errorf("building camelot-node: %w", err)
	}
	return bin, nil
}

func runCluster(cfg clusterConfig) (*report, error) {
	if cfg.Nodes < 2 {
		return nil, errors.New("need at least 2 nodes")
	}
	dir, err := os.MkdirTemp("", "camelot-cluster-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	bin, err := nodeBinary(cfg, dir)
	if err != nil {
		return nil, err
	}

	// The sharded deployment's map, built driver-side from the same
	// inputs the nodes get as flags; agreement is verified over ctl
	// after boot.
	var smap *shardmap.Map
	var extra []string
	if cfg.Shards > 0 {
		ids := make([]camelot.SiteID, cfg.Nodes)
		var idList []string
		for i := range ids {
			ids[i] = camelot.SiteID(i + 1)
			idList = append(idList, fmt.Sprint(i+1))
		}
		smap, err = shardmap.New(1, cfg.Shards, ids)
		if err != nil {
			return nil, err
		}
		extra = []string{"-shards", fmt.Sprint(cfg.Shards), "-sites", strings.Join(idList, ",")}
	}

	// Boot every site, collect addresses, then tell everyone about
	// everyone: nodes bind :0 before the full address map can exist,
	// which is exactly the startup race the transport's handler-less
	// backlog covers.
	var sites []camelot.SiteID
	procs := make(map[camelot.SiteID]*proc)
	defer func() {
		for _, p := range procs {
			p.stop()
		}
	}()
	for i := 1; i <= cfg.Nodes; i++ {
		id := camelot.SiteID(i)
		p, err := spawn(bin, id, filepath.Join(dir, fmt.Sprintf("site%d.wal", i)),
			"127.0.0.1:0", "127.0.0.1:0", cfg.Retry, extra...)
		if err != nil {
			return nil, err
		}
		procs[id] = p
		sites = append(sites, id)
	}
	if smap != nil {
		// Every member must route every key identically; a disagreement
		// here would corrupt data silently, so it is fatal before any
		// traffic flows.
		want, err := smap.Marshal()
		if err != nil {
			return nil, err
		}
		for _, id := range sites {
			got, err := procs[id].client.ShardMap()
			if err != nil {
				return nil, fmt.Errorf("site %d: shard map: %w", id, err)
			}
			if !bytes.Equal(got, want) {
				return nil, fmt.Errorf("site %d shard map disagrees:\n  node:   %s  driver: %s", id, got, want)
			}
		}
	}
	peers := make(map[camelot.SiteID]string, len(sites))
	for id, p := range procs {
		peers[id] = p.udpAddr
	}
	sendPeers := func() error {
		for _, id := range sites {
			if p := procs[id]; !p.down {
				if err := p.client.SetPeers(peers); err != nil {
					return fmt.Errorf("site %d: peers: %w", id, err)
				}
			}
		}
		return nil
	}
	if err := sendPeers(); err != nil {
		return nil, err
	}

	// The fault schedule: SIGKILL the highest site a third of the way
	// in, restart it at two thirds. Index-based, so a seed names one
	// deterministic schedule.
	victim := sites[len(sites)-1]
	killAt, restartAt := cfg.Txns/3, 2*cfg.Txns/3
	rep := &report{Schema: ReportSchema, Nodes: cfg.Nodes, Txns: cfg.Txns, Seed: cfg.Seed,
		Protocol: cfg.Protocol, Killed: int(victim), Violations: []string{},
		Shards: cfg.Shards}

	// Sharded views route presence checks by key (empty server name);
	// legacy views address the single "store" server.
	oracleServer := "store"
	if smap != nil {
		oracleServer = ""
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	txns := make([]oracle.Txn, cfg.Txns)
	for i := 0; i < cfg.Txns; i++ {
		if cfg.Kill && i == killAt {
			if cfg.KillMidCommit {
				// The victim coordinates an all-site transaction and is
				// SIGKILLed with its commit in flight; the survivors
				// must resolve it — and release its locks — before the
				// coordinator ever comes back.
				tx, ops := allSitesTxn(i, sites)
				protocol := cfg.Protocol
				if smap != nil {
					tx, ops = shardAllSitesTxn(i, smap)
					if protocol == "" {
						protocol = shardProtocols[i%len(shardProtocols)]
					}
				}
				txns[i] = runTxnKillCoordinator(procs, victim, ops, protocol, tx)
				time.Sleep(20 * cfg.Retry)
				rep.Violations = append(rep.Violations,
					survivorsResolved(procs, oracleServer, txns[i])...)
				continue
			}
			procs[victim].kill()
		}
		if cfg.Kill && i == restartAt {
			if err := procs[victim].restart(bin, cfg.Retry); err != nil {
				return nil, fmt.Errorf("restarting site %d: %w", victim, err)
			}
			if err := sendPeers(); err != nil {
				return nil, err
			}
		}
		if smap != nil {
			txns[i] = runShardTxn(rng, i, procs, cfg.Protocol, smap)
		} else {
			txns[i] = runTxn(rng, i, sites, procs, cfg.Protocol)
		}
	}

	// Quiesce: let outcome retries, presumed-abort inquiries, and ack
	// fan-ins finish against the healed cluster.
	time.Sleep(20 * cfg.Retry)

	views := make(map[camelot.SiteID]oracle.SiteView, len(sites))
	for _, id := range sites {
		views[id] = &ctl.View{C: procs[id].client, Server: oracleServer}
	}
	for _, v := range oracle.CheckViews(sites, views, txns) {
		rep.Violations = append(rep.Violations, v.String())
	}

	// Transport counters, before any bounce resets the processes.
	for _, id := range sites {
		if st, err := procs[id].client.TransportStats(); err == nil {
			rep.Sent += st.Sent
			rep.Recv += st.Recv
			rep.Dropped += st.Dropped
			rep.Oversize += st.Oversize
		}
	}

	if cfg.Bounce {
		// Everything lazily buffered must be on disk before the axe:
		// the nodes' flush interval is well under this sleep.
		time.Sleep(250 * time.Millisecond)
		for _, id := range sites {
			procs[id].kill()
		}
		for _, id := range sites {
			if err := procs[id].restart(bin, cfg.Retry); err != nil {
				return nil, fmt.Errorf("bounce: restarting site %d: %w", id, err)
			}
		}
		if err := sendPeers(); err != nil {
			return nil, err
		}
		// In-doubt survivors resolve by inquiry once everyone is back.
		time.Sleep(20 * cfg.Retry)
		for _, id := range sites {
			views[id] = &ctl.View{C: procs[id].client, Server: oracleServer}
		}
		for _, v := range oracle.CheckViews(sites, views, txns) {
			rep.Violations = append(rep.Violations, "durability: "+v.String())
		}
	}

	for _, tx := range txns {
		switch tx.Outcome {
		case oracle.Committed:
			rep.Committed++
		case oracle.Aborted:
			rep.Aborted++
		case oracle.Skipped:
			rep.Skipped++
		default:
			rep.Unknown++
		}
		if crossShard(tx) {
			rep.CrossShard++
			if tx.Outcome == oracle.Committed {
				rep.CrossShardCommitted++
			}
		}
	}
	return rep, nil
}

// crossShard reports whether a sharded transaction's write set spans
// more than one home site.
func crossShard(tx oracle.Txn) bool {
	if len(tx.Writes) == 0 {
		return false
	}
	for _, w := range tx.Writes[1:] {
		if w.Site != tx.Writes[0].Site {
			return true
		}
	}
	return false
}

// clientOf resolves a site to its control client for ctl.Stage,
// failing for a killed site.
func clientOf(procs map[camelot.SiteID]*proc) func(camelot.SiteID) (*ctl.Client, error) {
	return func(id camelot.SiteID) (*ctl.Client, error) {
		if p := procs[id]; !p.down {
			return p.client, nil
		}
		return nil, fmt.Errorf("site %d is down", id)
	}
}

// storeWrites writes key at the "store" server of every site in
// order, each site's value naming the transaction and the site.
func storeWrites(i int, key string, sites []camelot.SiteID) []ctl.Op {
	ops := make([]ctl.Op, 0, len(sites))
	for _, id := range sites {
		ops = append(ops, ctl.Op{Site: id, Server: "store", Key: key, Val: []byte(fmt.Sprintf("v%d@%d", i, id))})
	}
	return ops
}

// outcomeOf is the client's view of a transaction from the error of
// ctl.Stage or of the commit that followed it.
func outcomeOf(t camelot.TID, err error) oracle.Outcome {
	switch {
	case t.IsZero():
		return oracle.Skipped
	case err == nil:
		return oracle.Committed
	case errors.Is(err, ctl.ErrAborted):
		return oracle.Aborted
	}
	return oracle.Unknown
}

// runOps stages ops at coord, commits them under protocol, and
// records the client's view in tx. It returns the failure, if any.
func runOps(at func(camelot.SiteID) (*ctl.Client, error), coord camelot.SiteID, ops []ctl.Op,
	protocol string, tx *oracle.Txn) error {

	t, err := ctl.Stage(at, coord, ops)
	if err == nil {
		var c *ctl.Client
		if c, err = at(coord); err == nil {
			_, err = c.CommitWith(t, protocol)
		}
	}
	tx.Family = t.Family
	tx.Outcome = outcomeOf(t, err)
	return err
}

// runTxn drives one workload transaction: a random up coordinator, a
// random write set (the txn's key written at each member), sometimes
// a read-only participant (exercising the read-only vote), sometimes
// the non-blocking protocol. Returns the oracle's record of it.
func runTxn(rng *rand.Rand, i int, sites []camelot.SiteID, procs map[camelot.SiteID]*proc, protocol string) oracle.Txn {
	key := fmt.Sprintf("txn%04d", i)

	// Draw the schedule before consulting liveness, so the random
	// sequence for a seed does not depend on timing.
	coordPick := rng.Intn(len(sites))
	var writers []camelot.SiteID
	for _, id := range sites {
		if rng.Float64() < 0.7 {
			writers = append(writers, id)
		}
	}
	withReader := rng.Float64() < 0.3
	readerPick := rng.Intn(len(sites))
	nonBlocking := rng.Float64() < 0.3
	if protocol == "" {
		protocol = "2pc"
		if nonBlocking {
			protocol = "nb"
		}
	}

	var up []camelot.SiteID
	for _, id := range sites {
		if !procs[id].down {
			up = append(up, id)
		}
	}
	coord := up[coordPick%len(up)]
	if len(writers) == 0 {
		writers = []camelot.SiteID{coord}
	}
	if !slices.Contains(writers, coord) {
		writers = append(writers, coord)
	}

	ops := storeWrites(i, key, writers)
	// A read-only participant joins the family but holds no updates;
	// its prepare answers with the read-only vote and drops out of
	// phase two. Its read fails, aborting the transaction like any
	// failed op, when the key it reads never reached that site.
	reader := sites[readerPick%len(sites)]
	if withReader && !procs[reader].down && !slices.Contains(writers, reader) {
		ops = append(ops, ctl.Op{Site: reader, Server: "store", Key: fmt.Sprintf("txn%04d", i/2)})
	}
	tx := oracle.Txn{Key: key, Outcome: oracle.Skipped, Sites: writers}
	runOps(clientOf(procs), coord, ops, protocol, &tx) //nolint:errcheck // the outcome lands in tx
	return tx
}

// allSitesTxn draws the mid-commit kill's transaction: its key
// written at every site.
func allSitesTxn(i int, sites []camelot.SiteID) (oracle.Txn, []ctl.Op) {
	key := fmt.Sprintf("txn%04d", i)
	return oracle.Txn{Key: key, Outcome: oracle.Skipped, Sites: sites}, storeWrites(i, key, sites)
}

// runTxnKillCoordinator drives the mid-commit coordinator kill: coord
// stages ops, its commit is issued on a separate goroutine, and the
// process is SIGKILLed a moment later — with the commit protocol
// somewhere between the first prepare and the last ack. The client's
// view is Unknown unless the commit call won the race.
func runTxnKillCoordinator(procs map[camelot.SiteID]*proc, coord camelot.SiteID, ops []ctl.Op,
	protocol string, tx oracle.Txn) oracle.Txn {

	if len(ops) == 0 {
		return tx
	}
	t, err := ctl.Stage(clientOf(procs), coord, ops)
	tx.Family = t.Family
	if err != nil {
		tx.Outcome = outcomeOf(t, err)
		return tx
	}

	var witnesses []*proc
	for _, op := range ops {
		if op.Site != coord {
			witnesses = append(witnesses, procs[op.Site])
		}
	}
	before := settleRecv(witnesses, time.Second)
	done := make(chan error, 1)
	go func() {
		_, err := procs[coord].client.CommitWith(t, protocol)
		done <- err
	}()
	waitCommitUnderway(witnesses, before, time.Second)
	procs[coord].kill()
	tx.Outcome = outcomeOf(t, <-done)
	return tx
}

// recvCount reads a node's datagram-receive counter; errors read as
// zero, which only makes the callers wait out their caps.
func recvCount(p *proc) int {
	if s, err := p.client.TransportStats(); err == nil {
		return s.Recv
	}
	return 0
}

// settleRecv waits until every witness's datagram-receive counter
// stops moving (two consecutive reads a beat apart agree), then
// returns the settled counts. Gating the mid-commit kill on counter
// growth is only sound if stragglers from earlier transactions — lazy
// acks, retries — cannot supply the growth themselves.
func settleRecv(witnesses []*proc, cap time.Duration) []int {
	last := make([]int, len(witnesses))
	for i, w := range witnesses {
		last[i] = recvCount(w)
	}
	deadline := time.Now().Add(cap)
	for time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		stable := true
		for i, w := range witnesses {
			if n := recvCount(w); n != last[i] {
				last[i] = n
				stable = false
			}
		}
		if stable {
			break
		}
	}
	return last
}

// waitCommitUnderway polls the surviving participants' datagram-
// receive counters until the victim's commit fan-out observably
// reached every one of them (or the cap expires). Killing the
// coordinator before the prepares escape would leave the survivors
// active orphans of a transaction nobody can resolve until the
// coordinator returns — legitimate commitment semantics, but the
// survivors-resolve check is only meaningful once commitment actually
// began everywhere.
func waitCommitUnderway(witnesses []*proc, before []int, cap time.Duration) {
	deadline := time.Now().Add(cap)
	for time.Now().Before(deadline) {
		grown := true
		for i, w := range witnesses {
			if recvCount(w) <= before[i] {
				grown = false
				break
			}
		}
		if grown {
			return
		}
	}
}

// probeLockRetry runs a lock-reacquisition probe, retrying briefly on
// failure: the survivors resolve the orphaned transaction on their
// own timers, and under CPU load (a parallel test suite, a busy CI
// host) resolution can land moments after the kill settles. The
// coordinator stays down for the whole window, so a success on any
// attempt still demonstrates non-blocking resolution.
func probeLockRetry(probe func() error) error {
	deadline := time.Now().Add(3 * time.Second)
	for {
		err := probe()
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// survivorsResolved checks, while the killed coordinator is still
// down, that every surviving site resolved its piece of the
// transaction: the piece's key must be re-lockable (a blocked
// protocol would leak the lock) and the survivors' pieces must agree
// — all landed or none did. A legacy transaction's pieces are its key
// at each of its sites' "store" server; a sharded one's (server "")
// are its writes, each at its key's home. Violations are returned as
// strings for the report.
func survivorsResolved(procs map[camelot.SiteID]*proc, server string, tx oracle.Txn) []string {
	pieces := tx.Writes
	if server != "" {
		pieces = nil
		for _, id := range tx.Sites {
			pieces = append(pieces, oracle.Write{Key: tx.Key, Site: id})
		}
	}
	at := clientOf(procs)
	var out []string
	var seen []oracle.Write
	var present []bool
	for _, w := range pieces {
		p := procs[w.Site]
		if p.down {
			continue
		}
		// Re-acquire the piece's lock under a throwaway transaction: if
		// the commit protocol is blocked on the dead coordinator, this
		// write blocks too.
		if err := probeLockRetry(func() error {
			pt, err := ctl.Stage(at, w.Site, []ctl.Op{{Site: w.Site, Server: server, Key: w.Key, Val: []byte("probe")}})
			if pt.IsZero() {
				return fmt.Errorf("begin: %w", err)
			}
			if err != nil {
				return fmt.Errorf("%q still locked: %w", w.Key, err)
			}
			p.client.Abort(pt) //nolint:errcheck // probe cleanup
			return nil
		}); err != nil {
			out = append(out, fmt.Sprintf("non-blocking: site %d: %v with coordinator down", w.Site, err))
		}
		ok, err := (&ctl.View{C: p.client, Server: server}).HasKey(w.Key)
		if err != nil {
			out = append(out, fmt.Sprintf("non-blocking: site %d: peek %q: %v", w.Site, w.Key, err))
			continue
		}
		seen = append(seen, w)
		present = append(present, ok)
	}
	for k := 1; k < len(seen); k++ {
		if present[k] != present[0] {
			out = append(out, fmt.Sprintf("non-blocking: survivors disagree with coordinator down: site %d %q=%v, site %d %q=%v",
				seen[0].Site, seen[0].Key, present[0], seen[k].Site, seen[k].Key, present[k]))
		}
	}
	return out
}
