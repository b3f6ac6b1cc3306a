package main

import (
	"fmt"
	"math/rand"

	"camelot/camelot"
	"camelot/internal/ctl"
	"camelot/internal/oracle"
	"camelot/internal/shardmap"
)

// shardProtocols is the deterministic per-transaction protocol cycle
// used when no -protocol is pinned: the sharded run exercises
// cross-shard commitment under all three protocols.
var shardProtocols = []string{"2pc", "nb", "paxos"}

// keyHomedAt finds a key under prefix whose shard homes at site, by
// deterministic candidate search — a pure function of (map, prefix,
// site), so the workload for a seed is identical on every run.
func keyHomedAt(m *shardmap.Map, prefix string, site camelot.SiteID) (string, error) {
	for c := 0; c < 4096; c++ {
		k := fmt.Sprintf("%s.%d", prefix, c)
		if m.SiteOf(k) == site {
			return k, nil
		}
	}
	return "", fmt.Errorf("no key under %q homes at site %d (map has no shard there?)", prefix, site)
}

// runShardTxn drives one keyspace-aware workload transaction: a key
// set drawn uniformly over the sites (deliberately straddling shards
// on distinct sites most of the time), sometimes one of eight shared
// hot keys (the skew), each write routed to its key's home site, the
// participant set derived from the shards touched, and the commit run
// by the per-transaction protocol cycle (or the pinned -protocol).
func runShardTxn(rng *rand.Rand, i int, procs map[camelot.SiteID]*proc,
	protocol string, m *shardmap.Map) oracle.Txn {

	// Draw the whole schedule before consulting liveness, so a seed
	// names one deterministic workload regardless of timing. Targets
	// come from the map's placed sites: a site hosting no shard can
	// never be written, only coordinate.
	placed := m.Sites()
	nTargets := 1
	if len(placed) > 1 && rng.Float64() < 0.75 {
		nTargets = 2 + rng.Intn(len(placed)-1) // cross-shard, usually
	}
	perm := rng.Perm(len(placed))
	withHot := rng.Float64() < 0.35
	hotPick := rng.Intn(8)
	if protocol == "" {
		protocol = shardProtocols[i%len(shardProtocols)]
	}

	writes := []oracle.Write{}
	for j := 0; j < nTargets; j++ {
		target := placed[perm[j]]
		key, err := keyHomedAt(m, fmt.Sprintf("t%04d.x%d", i, j), target)
		if err != nil {
			continue // a site with no shards simply drops out of the write set
		}
		writes = append(writes, oracle.Write{Key: key, Site: target})
	}
	if withHot {
		hot := fmt.Sprintf("hot%d", hotPick)
		if home := m.SiteOf(hot); home != 0 {
			dup := false
			for _, w := range writes {
				dup = dup || w.Key == hot
			}
			if !dup {
				writes = append(writes, oracle.Write{Key: hot, Site: home, Shared: true})
			}
		}
	}
	tx := oracle.Txn{Outcome: oracle.Skipped, Writes: writes}
	if len(writes) == 0 {
		return tx
	}
	tx.Key = writes[0].Key
	// The coordinator is the first key's home: always a participant,
	// so the commit instance never needs a site outside the write set.
	runOps(clientOf(procs), writes[0].Site, keyWrites(i, writes), protocol, &tx) //nolint:errcheck // the outcome lands in tx
	return tx
}

// keyWrites routes each write to its key's home site by the shard
// map, each value naming the transaction and the site.
func keyWrites(i int, writes []oracle.Write) []ctl.Op {
	ops := make([]ctl.Op, 0, len(writes))
	for _, w := range writes {
		ops = append(ops, ctl.Op{Site: w.Site, Key: w.Key, Val: []byte(fmt.Sprintf("v%d@%d", i, w.Site))})
	}
	return ops
}

// shardAllSitesTxn draws the sharded mid-commit kill's transaction: a
// write set straddling a shard on every placed site.
func shardAllSitesTxn(i int, m *shardmap.Map) (oracle.Txn, []ctl.Op) {
	writes := []oracle.Write{}
	for j, id := range m.Sites() {
		key, err := keyHomedAt(m, fmt.Sprintf("t%04d.x%d", i, j), id)
		if err != nil {
			continue
		}
		writes = append(writes, oracle.Write{Key: key, Site: id})
	}
	tx := oracle.Txn{Outcome: oracle.Skipped, Writes: writes}
	if len(writes) > 0 {
		tx.Key = writes[0].Key
	}
	return tx, keyWrites(i, writes)
}
