package node

import (
	"fmt"

	"cphash/internal/replica"
)

// StatsDoc renders the /stats document: one entry per member plus the
// backend name, so a scraper can tell deployments apart.
func (c *Coordinator) StatsDoc() map[string]any {
	members := c.Members()
	list := make([]map[string]any, len(members))
	for i, m := range members {
		s := m.snapshot()
		s["addr"] = m.Addr
		list[i] = s
	}
	return map[string]any{"backend": c.cfg.Backend, "instances": list}
}

// ReplicationSummary is the compact replication section of /stats.
func (c *Coordinator) ReplicationSummary() map[string]any {
	return map[string]any{
		"enabled":     c.cfg.Replicas >= 2,
		"replicas":    c.cfg.Replicas,
		"links":       c.linkCount(),
		"autopromote": c.det != nil,
		"promotions":  c.Promotions(),
	}
}

// PersistenceDoc renders the /persistence document: WAL, snapshot and
// recovery counters for every persisted member.
func (c *Coordinator) PersistenceDoc() map[string]any {
	list := []map[string]any{}
	for _, m := range c.Members() {
		if m.pipe == nil {
			continue
		}
		list = append(list, map[string]any{
			"addr":      m.Addr,
			"dir":       m.pipe.Dir(),
			"stats":     m.pipe.Stats(),
			"wal":       m.pipe.WALStatus(),
			"recovered": m.recovered,
		})
	}
	return map[string]any{
		"enabled":   c.cfg.Persist.Dir != "",
		"sync":      c.cfg.Persist.Policy.String(),
		"instances": list,
	}
}

// SnapshotNow triggers an immediate snapshot on the addressed member
// ("" = all persisted members), returning per-member outcomes.
func (c *Coordinator) SnapshotNow(addr string) (map[string]string, error) {
	out := map[string]string{}
	matched := false
	for _, m := range c.Members() {
		if addr != "" && m.Addr != addr {
			continue
		}
		matched = true
		if m.pipe == nil {
			out[m.Addr] = "persistence disabled"
			continue
		}
		if err := m.pipe.Snapshot(); err != nil {
			out[m.Addr] = err.Error()
		} else {
			out[m.Addr] = "ok"
		}
	}
	if !matched {
		return nil, fmt.Errorf("no instance %q", addr)
	}
	return out, nil
}

// MigrationDoc renders the /migration document.
func (c *Coordinator) MigrationDoc() map[string]any {
	st := c.migr.Stats()
	return map[string]any{
		"active":          st.Active,
		"migrations":      st.Migrations,
		"slotsTotal":      st.SlotsTotal,
		"slotsDone":       st.SlotsDone,
		"slotsPending":    c.cli.MigratingSlots(),
		"sourcesPending":  c.migr.Pending(),
		"sourcesDrained":  st.Sources,
		"entriesStreamed": st.Entries,
		"bytesStreamed":   st.Bytes,
		"entriesReplayed": st.Replayed,
		"replayErrors":    st.ReplayErrors,
		"stalePurged":     st.Purged,
		"promotions":      st.Promotions,
	}
}

// ReplicationDoc renders the /replication document: per member, its
// source's peers (who replicates FROM it) and its follower links (who it
// replicates from), with watermarks and staleness.
func (c *Coordinator) ReplicationDoc() map[string]any {
	doc := map[string]any{"enabled": c.cfg.Replicas >= 2, "replicas": c.cfg.Replicas}
	if c.cfg.Replicas < 2 {
		return doc
	}
	c.mu.Lock()
	members := append([]*Member(nil), c.members...)
	links := make(map[string]map[string]*replica.Follower, len(c.links))
	for fa, m := range c.links {
		links[fa] = make(map[string]*replica.Follower, len(m))
		for pa, l := range m {
			links[fa][pa] = l.f
		}
	}
	c.mu.Unlock()
	list := make([]map[string]any, 0, len(members))
	for _, m := range members {
		e := map[string]any{"addr": m.Addr}
		if m.src != nil {
			e["sourceAddr"] = m.src.Addr()
			e["tail"] = m.src.Tail()
			e["peers"] = m.src.Peers()
		}
		follows := []map[string]any{}
		for pAddr, f := range links[m.Addr] {
			follows = append(follows, map[string]any{
				"primary": pAddr,
				"status":  f.Status(),
			})
		}
		e["follows"] = follows
		list = append(list, e)
	}
	doc["instances"] = list
	doc["promotions"] = c.Promotions()
	doc["failover"] = c.DetectDoc()
	return doc
}

// DetectDoc renders the /detect document, also the failover section of
// /replication.
func (c *Coordinator) DetectDoc() map[string]any {
	doc := map[string]any{
		"enabled":   c.det != nil,
		"downAfter": c.cfg.Detect.DownAfter.String(),
		"cooldown":  c.cfg.Detect.Cooldown.String(),
	}
	if c.det != nil {
		doc["targets"] = c.det.Status()
	}
	return doc
}
