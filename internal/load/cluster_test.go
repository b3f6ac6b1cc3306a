package load

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"camelot/camelot"
	"camelot/internal/ctl"
	"camelot/internal/rt"
)

// TestClusterLoadgenSmoke drives a low-rate open-loop run against a
// real 3-site loopback cluster (real UDP, real ctl TCP, on-disk WALs)
// end to end: every scheduled arrival completes, no infrastructure
// errors, the WAL and transport actually moved, and the connection
// pools dialed roughly the concurrency — not once per operation.
func TestClusterLoadgenSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a real cluster")
	}
	const sessions = 4
	c, err := StartCluster(ClusterConfig{
		Sites:    3,
		Shards:   6,
		Dir:      t.TempDir(),
		Sessions: sessions,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	cfg := Config{
		Rate:     50,
		Duration: 500 * time.Millisecond,
		Sessions: sessions,
		Dist:     DistUniform,
		Seed:     1,
	}
	res, err := Run(rt.Real(), cfg, func(i int) error {
		return c.Txn(i%sessions, i, "2pc")
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Done != res.Intended {
		t.Fatalf("done %d != intended %d", res.Done, res.Intended)
	}
	if res.Errs != 0 {
		t.Fatalf("%d/%d ops errored", res.Errs, res.Done)
	}
	if res.Hist.Count() == 0 || res.Hist.Percentile(50) <= 0 {
		t.Fatal("no latencies recorded")
	}
	appends, writes, sent, recv, _ := c.Counters()
	if appends == 0 || writes == 0 {
		t.Fatalf("WAL counters did not move: appends=%d deviceWrites=%d", appends, writes)
	}
	if sent == 0 || recv == 0 {
		t.Fatalf("transport counters did not move: sent=%d recv=%d", sent, recv)
	}
	// Pooling: 2 pools touched per txn, so the dial count must be near
	// the session count, far below one dial per operation.
	if d := c.Dials(); d > 4*sessions {
		t.Fatalf("pools dialed %d times for %d ops — pooling is not recycling", d, res.Done)
	}
}

// TestClusterTxnAllProtocols commits one transaction under each
// protocol to pin the ctl plumbing per protocol name, and an unknown
// name must fail rather than run as some other protocol.
func TestClusterTxnAllProtocols(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a real cluster")
	}
	c, err := StartCluster(ClusterConfig{Sites: 3, Dir: t.TempDir(), Sessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, proto := range []string{"2pc", "nb", "paxos"} {
		if err := c.Txn(0, 0, proto); err != nil {
			t.Fatalf("%s: %v", proto, err)
		}
	}
	if err := c.Txn(0, 0, "pxos"); err == nil {
		t.Fatal("pxos: an unknown protocol name committed")
	}
}

// TestStage drives ctl.Stage against an in-process cluster, unsharded
// (ops name the "store" server) and sharded (ops route by key): a
// two-site write commits at both home sites, and a failing op aborts
// the transaction and releases its locks, so a follow-up write to the
// same keys succeeds at once.
func TestStage(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a real cluster")
	}
	for _, tc := range []struct {
		name   string
		shards int
		server string
	}{
		{"named", 0, "store"},
		{"routed", 4, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A leaked lock would block the follow-up write; the short
			// call deadline turns that hang into a failure.
			c, err := StartCluster(ClusterConfig{Sites: 3, Shards: tc.shards, Dir: t.TempDir(),
				CallTimeout: time.Second, Sessions: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			clients := map[camelot.SiteID]*ctl.Client{}
			for i, p := range c.pools {
				cl, err := p.Get()
				if err != nil {
					t.Fatal(err)
				}
				defer p.Put(cl)
				clients[c.nodes[i].ID()] = cl
			}
			at := func(s camelot.SiteID) (*ctl.Client, error) { return clients[s], nil }
			write := func(site camelot.SiteID, key, val string) ctl.Op {
				return ctl.Op{Site: site, Server: tc.server, Key: key, Val: []byte(val)}
			}
			peek := func(site camelot.SiteID, key string) []byte {
				t.Helper()
				val, _, err := clients[site].PeekKey(key)
				if tc.server != "" {
					val, _, err = clients[site].Peek(tc.server, key)
				}
				if err != nil {
					t.Fatalf("peek %q at site %d: %v", key, site, err)
				}
				return val
			}
			commit := func(ops ...ctl.Op) {
				t.Helper()
				tx, err := ctl.Stage(at, 1, ops)
				if err != nil {
					t.Fatalf("stage: %v", err)
				}
				if _, err := clients[1].CommitWith(tx, "2pc"); err != nil {
					t.Fatalf("commit: %v", err)
				}
			}

			k1, k2 := c.keyFor(1), c.keyFor(2)
			commit(write(1, k1, "a"), write(2, k2, "b"))
			// Site 2 took part in the commitment (addsites named it):
			// the coordinator's prepare reached it before the commit
			// returned. The fresh cluster has carried no other traffic.
			if st, err := clients[2].TransportStats(); err != nil || st.Recv == 0 {
				t.Fatalf("site 2 received %d datagrams (%v) by the commit's return; want its prepare", st.Recv, err)
			}
			if got := peek(1, k1); !bytes.Equal(got, []byte("a")) {
				t.Fatalf("site 1 %q = %q, want a", k1, got)
			}
			if got := peek(2, k2); !bytes.Equal(got, []byte("b")) {
				t.Fatalf("site 2 %q = %q, want b", k2, got)
			}

			// The second op names a server no site hosts.
			bad := write(2, k2, "y")
			bad.Server = "nosuch"
			tx, err := ctl.Stage(at, 1, []ctl.Op{write(1, k1, "x"), bad})
			if tx.IsZero() || !errors.Is(err, ctl.ErrAborted) {
				t.Fatalf("stage with a failing op = %v, %v; want a begun, aborted transaction", tx, err)
			}
			if got := peek(1, k1); !bytes.Equal(got, []byte("a")) {
				t.Fatalf("site 1 %q = %q after the abort, want a", k1, got)
			}
			// Both keys again: the aborted transaction released k1 at
			// site 1, and the first commit reached site 2 and released
			// k2 there — a lock left behind by either would block this
			// write past the call deadline.
			commit(write(1, k1, "c"), write(2, k2, "d"))
			if got := peek(1, k1); !bytes.Equal(got, []byte("c")) {
				t.Fatalf("site 1 %q = %q, want c", k1, got)
			}
			if got := peek(2, k2); !bytes.Equal(got, []byte("d")) {
				t.Fatalf("site 2 %q = %q, want d", k2, got)
			}
		})
	}
}
