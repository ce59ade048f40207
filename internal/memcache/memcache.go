// Package memcache builds the MEMCACHED stand-in of the paper's Figure 14.
// What the paper measures is architectural: one coarse lock guards each
// instance's whole state, and scaling past one core means independent
// instances with the *client* partitioning the keys. An instance is
// therefore a one-partition LOCKHASH table behind a one-worker kvserver —
// the same construction as `cpserver -backend memcache` — so the three
// designs share the serving path and differ only in the table's
// concurrency scheme.
package memcache

import (
	"cphash/internal/kvserver"
	"cphash/internal/lockhash"
)

// Cluster is the paper's multi-instance configuration: one single-lock
// server per simulated core, keys partitioned by the client.
type Cluster struct {
	Servers []*kvserver.Server
}

// ServeCluster starts n instances on loopback, splitting capacityBytes
// between them.
func ServeCluster(n, capacityBytes int) (*Cluster, error) {
	n = max(n, 1)
	c := &Cluster{}
	for k := 0; k < n; k++ {
		table, err := lockhash.New(lockhash.Config{Partitions: 1, CapacityBytes: capacityBytes / n})
		if err != nil {
			c.Close()
			return nil, err
		}
		srv, err := kvserver.Serve(kvserver.Config{
			Addr: "127.0.0.1:0", Workers: 1, NewBackend: kvserver.NewLockHashBackend(table),
		})
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Servers = append(c.Servers, srv)
	}
	return c, nil
}

// Addrs lists the instance addresses, in order, for the load generator.
func (c *Cluster) Addrs() []string {
	out := make([]string, len(c.Servers))
	for i, srv := range c.Servers {
		out[i] = srv.Addr()
	}
	return out
}

// Close stops every instance.
func (c *Cluster) Close() {
	for _, srv := range c.Servers {
		srv.Close()
	}
}
