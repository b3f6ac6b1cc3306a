package main

import (
	"bytes"
	"fmt"

	"camelot/internal/ctl"
)

// verify checks the cluster's state against what the transactions
// were told, through ctl Peek at both sites of each transaction:
//   - every acknowledged commit is readable at both sites;
//   - a fresh-key update that did not commit left both keys or
//     neither (atomicity; one that was told "aborted" left neither);
//   - every read returned, and every preloaded key still holds, its
//     preloaded value.
//
// It returns one line per violation.
func verify(cl *cluster, w workload, txns []txn) ([]string, error) {
	peers := make([]*ctl.Client, nsites)
	for i, p := range cl.pools {
		c, err := p.Get()
		if err != nil {
			return nil, err
		}
		defer p.Put(c)
		peers[i] = c
	}
	var bad []string
	peek := func(site int, key string) ([]byte, bool) {
		v, ok, err := peers[site].Peek("store", key)
		if err != nil {
			bad = append(bad, fmt.Sprintf("peek %s at site %d: %v", key, site+1, err))
		}
		return v, ok
	}
	for i := range txns {
		t := &txns[i]
		for _, r := range t.badReads {
			bad = append(bad, fmt.Sprintf("txn %d read %s, not its preloaded value", t.idx, r))
		}
		if !t.plan.write {
			continue
		}
		var present [2]bool
		for j, site := range [2]int{t.coordIdx, t.partIdx} {
			key := t.plan.keys[j]
			v, ok := peek(site, key)
			present[j] = ok
			if ok && !bytes.Equal(v, valueOf(key)) {
				bad = append(bad, fmt.Sprintf("txn %d: %s at site %d holds %q", t.idx, key, site+1, v))
			}
		}
		switch {
		case t.outcome == committed || w.preload > 0:
			if !present[0] || !present[1] {
				bad = append(bad, fmt.Sprintf("txn %d (outcome %d): keys present %v, want both", t.idx, t.outcome, present))
			}
		case t.outcome == aborted && (present[0] || present[1]):
			bad = append(bad, fmt.Sprintf("txn %d aborted but keys present %v", t.idx, present))
		case present[0] != present[1]:
			bad = append(bad, fmt.Sprintf("txn %d failed with keys present %v: not atomic", t.idx, present))
		}
	}
	for site := 0; site < nsites; site++ {
		for k := 0; k < w.preload; k++ {
			key := preloadKey(k)
			if v, ok := peek(site, key); !ok || !bytes.Equal(v, valueOf(key)) {
				bad = append(bad, fmt.Sprintf("preloaded %s at site %d: %q present=%v", key, site+1, v, ok))
			}
		}
	}
	return bad, nil
}
