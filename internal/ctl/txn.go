package ctl

import (
	"errors"
	"fmt"
	"slices"

	"camelot/camelot"
)

// Op is one data operation of a transaction, run at participant site
// Site: a non-nil Val writes Key=Val, a nil Val reads Key. Server
// names the site's data server; empty routes Key through the node's
// shard map, as View does.
type Op struct {
	Site   camelot.SiteID
	Server string
	Key    string
	Val    []byte
}

// run performs op under t at the client at resolves for its site.
func (op Op) run(at func(camelot.SiteID) (*Client, error), t camelot.TID) error {
	c, err := at(op.Site)
	if err != nil {
		return err
	}
	switch {
	case op.Val == nil && op.Server == "":
		_, err = c.ReadKey(t, op.Key)
	case op.Val == nil:
		_, err = c.Read(op.Server, t, op.Key)
	case op.Server == "":
		err = c.WriteKey(t, op.Key, op.Val)
	default:
		err = c.Write(op.Server, t, op.Key, op.Val)
	}
	return err
}

// Stage runs a transaction up to its commit over the control plane:
// begin at coord, each op in order at its site, then one addsites at
// coord naming every other site an op ran at, in ascending order. at
// resolves a site to the client that reaches it; its error (site
// down, pool closed) fails the transaction like a failed op.
//
// The caller commits the returned TID with CommitWith — or, in a
// fault experiment, kills the coordinator with that commit in flight.
// On a failed op or addsites Stage aborts at coord, first declaring
// the other sites it sent ops to, so the coordinator's abort notice
// reaches them at once instead of leaving them to learn the outcome
// by inquiry. The error wraps ErrAborted when the abort went through,
// so it classifies like a Commit error, and leaves the outcome
// unknown otherwise. A zero TID means begin itself failed and there
// is nothing to undo.
func Stage(at func(camelot.SiteID) (*Client, error), coord camelot.SiteID, ops []Op) (camelot.TID, error) {
	c, err := at(coord)
	if err != nil {
		return camelot.TID{}, err
	}
	t, err := c.Begin()
	if err != nil {
		return camelot.TID{}, err
	}
	var remote []camelot.SiteID
	var failed error
	for _, op := range ops {
		if op.Site != coord && !slices.Contains(remote, op.Site) {
			remote = append(remote, op.Site)
		}
		if failed = op.run(at, t); failed != nil {
			break
		}
	}
	if len(remote) > 0 {
		slices.Sort(remote)
		// After a failed op the declaration only speeds up the abort
		// below, which decides the outcome either way.
		err := c.AddSites(t, remote)
		if failed == nil {
			failed = err
		}
	}
	if failed == nil {
		return t, nil
	}
	if c, err = at(coord); err == nil {
		err = c.Abort(t)
	}
	if err != nil {
		return t, errors.Join(failed, fmt.Errorf("ctl: abort: %w", err))
	}
	return t, fmt.Errorf("%w: %w", ErrAborted, failed)
}
