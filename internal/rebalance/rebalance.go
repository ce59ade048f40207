// Package rebalance implements online slot migration for CPHash clusters:
// when the member set changes, the entries of every moved continuum slot
// are streamed from their previous owner to their new one while clients
// keep serving traffic.
//
// The protocol is deliberately simple, built from three primitives the
// rest of the stack provides:
//
//  1. client.AddNode/RemoveNode rebalance the ring immediately — writes
//     start flowing to the new owners at once — and open a dual-read
//     window per moved slot (miss on the new owner → retry the old one),
//     so no request observes a half-moved slot as a miss.
//
//  2. The wire SCAN op streams a slot set's live entries off each source
//     with TTLs preserved; the Migrator replays them through the updated
//     ring, which routes every moved key to its new owner by construction.
//     Replays use plain INSERT_TTL frames, so string-key entries (whose
//     stored value embeds the key) move byte-identically.
//
//  3. MarkMigrated closes the window per source, and PURGE removes the
//     moved entries from the source so a later topology change that hands
//     a slot back cannot resurrect stale copies.
//
// Consistency contract (cache semantics, the same the paper's memcached
// deployments give): keys not written concurrently with a migration are
// never lost and never duplicated; a key written concurrently may land
// either its old or its new value (a refill repairs it), exactly as with
// any concurrent SET race. Entries whose TTL elapses mid-migration may
// expire on either side; remaining TTLs transfer within clock skew plus
// stream latency.
//
// One Migrator instance serializes migrations and accumulates progress
// stats, which cmd/cpserver exposes over HTTP.
package rebalance

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cphash/internal/client"
	"cphash/internal/obs"
	"cphash/internal/protocol"
)

// Config parameterizes a Migrator.
type Config struct {
	// Batch bounds entries per SCAN round trip (default 512).
	Batch int
}

// Stats is a snapshot of migration progress, cumulative across runs.
type Stats struct {
	Migrations   int64 // topology changes processed
	SlotsTotal   int64 // slots scheduled for movement
	SlotsDone    int64 // slots whose window has been closed
	Sources      int64 // source members drained (cumulative)
	Entries      int64 // entries streamed off sources
	Bytes        int64 // value bytes streamed
	Replayed     int64 // entries written to their new owners
	ReplayErrors int64 // entries that failed to replay
	Purged       int64 // stale source entries removed after migration
	Promotions   int64 // failover promotions completed
	Active       bool  // a migration is running right now
}

// Migrator moves slot data when a Client's membership changes.
type Migrator struct {
	c     *client.Client
	batch int

	mu      sync.Mutex // serializes migrations
	pending *client.Migration
	promo   *promotion
	active  atomic.Bool

	migrations, slotsTotal, slotsDone   atomic.Int64
	sources, entries, bytes             atomic.Int64
	replayed, replayErrors, purgedStale atomic.Int64
	promotions                          atomic.Int64
	// windowHist records how long each migration window (data-moving run
	// or promotion confirm round) stayed open; lastWindowNS is the most
	// recent sample, as a directly readable gauge.
	windowHist   obs.Hist
	lastWindowNS atomic.Int64
}

// promotion is an in-flight failover: the departed member and, per new
// owner, the slots awaiting watermark confirmation. Owners drop out of
// byOwner as they confirm, so a retry re-confirms only the stragglers.
type promotion struct {
	removed string
	byOwner map[string][]int
	confirm func(newOwner string, slots []int) error
}

// New builds a Migrator over the client whose membership it will follow.
func New(c *client.Client, cfg Config) *Migrator {
	if cfg.Batch <= 0 {
		cfg.Batch = 512
	}
	return &Migrator{c: c, batch: cfg.Batch}
}

// Stats snapshots progress counters.
func (m *Migrator) Stats() Stats {
	return Stats{
		Migrations:   m.migrations.Load(),
		SlotsTotal:   m.slotsTotal.Load(),
		SlotsDone:    m.slotsDone.Load(),
		Sources:      m.sources.Load(),
		Entries:      m.entries.Load(),
		Bytes:        m.bytes.Load(),
		Replayed:     m.replayed.Load(),
		ReplayErrors: m.replayErrors.Load(),
		Purged:       m.purgedStale.Load(),
		Promotions:   m.promotions.Load(),
		Active:       m.active.Load(),
	}
}

// Promote fails over member addr — typically one that just died — onto
// the standby replicas of its slots. Unlike RemoveNode, nothing is
// streamed off the departing member: the rendezvous continuum reassigns
// each removed slot to exactly its rank-1 scorer (cluster.Ring.Standby),
// which is where internal/replica placed the slot's replica, so the data
// is already on every new owner and promotion is a pure ownership flip.
//
// confirm(newOwner, slots) gates the flip per new owner: it must return
// nil only once the replica there has applied everything the failed
// primary acknowledged — e.g. the coordinator waits for the follower
// link to drain and close, or for its watermark to reach the primary's
// final tail. Until confirm returns, the moved slots sit in the usual
// dual-read window (fallback reads to the dead member fail fast, as for
// any dead-node removal, so clients see at most a transient miss-shaped
// window, never stale routing). A nil confirm flips immediately.
//
// On a confirm error the unconfirmed owners' windows stay open and the
// promotion stays pending: the automatic resume before the next
// topology change re-confirms only the stragglers. confirm runs
// under the Migrator's serialization lock, so it should bound its wait.
func (m *Migrator) Promote(addr string, confirm func(newOwner string, slots []int) error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.resumeLocked(); err != nil {
		return fmt.Errorf("rebalance: resuming pending migration: %w", err)
	}
	mig, err := m.c.RemoveNode(addr)
	if err != nil {
		return err
	}
	m.migrations.Add(1)
	m.slotsTotal.Add(int64(mig.Slots()))
	ring := m.c.Ring()
	byOwner := make(map[string][]int)
	for _, slots := range mig.Moved {
		for _, s := range slots {
			owner := ring.Owner(s)
			byOwner[owner] = append(byOwner[owner], s)
		}
	}
	m.promo = &promotion{removed: addr, byOwner: byOwner, confirm: confirm}
	return m.promoteLocked()
}

// promoteLocked confirms and settles every owner of the pending
// promotion still awaiting its watermark, retiring the departed member
// once the last window closes.
func (m *Migrator) promoteLocked() error {
	m.active.Store(true)
	defer m.active.Store(false)
	defer m.observeWindow(time.Now())
	p := m.promo
	var firstErr error
	for owner, slots := range p.byOwner {
		if p.confirm != nil {
			if err := p.confirm(owner, slots); err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("rebalance: promote %v to %s: %w", slots, owner, err)
				}
				continue
			}
		}
		m.slotsDone.Add(int64(m.c.MarkMigrated(slots)))
		delete(p.byOwner, owner)
	}
	if firstErr != nil {
		return firstErr
	}
	if err := m.c.RetireNode(p.removed); err != nil {
		return err
	}
	m.promo = nil
	m.promotions.Add(1)
	return nil
}

// AddNode joins a member and migrates the slots that moved to it. A plan
// left unfinished by an earlier failure is resumed first, so a transient
// fault never wedges the coordinator behind ErrMigrationPending.
func (m *Migrator) AddNode(addr string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.resumeLocked(); err != nil {
		return fmt.Errorf("rebalance: resuming pending migration: %w", err)
	}
	mig, err := m.c.AddNode(addr)
	if err != nil {
		return err
	}
	return m.runLocked(mig)
}

// AddNodeWarm joins a member that already holds its slots' data — a
// node restarting warm from its durability directory (internal/persist)
// after a stop or crash. The ring placement is deterministic (rendezvous
// on the member address), so a node rejoining under the same address is
// assigned exactly the slots it served before; instead of streaming
// those entries from scratch, every moved slot's window is closed
// immediately and the joiner serves them from its recovered table.
//
// Cache-consistency caveat, same family as the migration contract: keys
// in the joiner's slots that were WRITTEN while it was away live on the
// interim owners, and reads route back to the joiner after this call —
// a stale or missing copy there reads as stale data or a miss until the
// entry is refilled or expires. Populate-then-rejoin workloads (and any
// workload that can tolerate a cache miss) are unaffected. Use AddNode
// when the joiner's disk state is gone or its address changed.
func (m *Migrator) AddNodeWarm(addr string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.resumeLocked(); err != nil {
		return fmt.Errorf("rebalance: resuming pending migration: %w", err)
	}
	mig, err := m.c.AddNode(addr)
	if err != nil {
		return err
	}
	m.migrations.Add(1)
	for _, slots := range mig.Moved {
		m.slotsTotal.Add(int64(len(slots)))
		m.slotsDone.Add(int64(m.c.MarkMigrated(slots)))
	}
	return nil
}

// RemoveNode departs a member, migrating its slots to the survivors
// first (resuming any unfinished plan, like AddNode). The member's server
// can be shut down once this returns.
func (m *Migrator) RemoveNode(addr string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := m.resumeLocked(); err != nil {
		return fmt.Errorf("rebalance: resuming pending migration: %w", err)
	}
	mig, err := m.c.RemoveNode(addr)
	if err != nil {
		return err
	}
	return m.runLocked(mig)
}

// Run executes a migration plan produced by client.AddNode/RemoveNode
// directly, for callers that manage membership themselves. Re-running a
// partially failed plan is safe: drained sources stream nothing and their
// windows are already closed.
func (m *Migrator) Run(mig *client.Migration) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.runLocked(mig)
}

// Pending reports how many sources of a failed plan still await draining
// (0 = no failed plan outstanding).
func (m *Migrator) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pending == nil {
		return 0
	}
	return len(m.pending.Moved)
}

// runLocked executes a fresh plan, remembering it for resumeLocked on
// failure.
// Plan-level counters are charged here, once per plan; retries charge
// nothing extra (drainSource books only windows it actually closes).
func (m *Migrator) runLocked(mig *client.Migration) error {
	m.migrations.Add(1)
	m.slotsTotal.Add(int64(mig.Slots()))
	m.pending = mig
	if err := m.run(mig); err != nil {
		return err
	}
	m.pending = nil
	return nil
}

func (m *Migrator) resumeLocked() error {
	if m.promo != nil {
		if err := m.promoteLocked(); err != nil {
			return err
		}
	}
	if m.pending == nil {
		return nil
	}
	if err := m.run(m.pending); err != nil {
		return err
	}
	m.pending = nil
	return nil
}

// run streams every source in parallel (sources are distinct members, so
// the streams do not contend). Per source: scan the moved slots, replay
// each entry through the updated ring, close the dual-read window, purge
// the source's stale copies, and retire a departing member's pool.
//
// On error the affected source's window stays OPEN: reads keep falling
// back to it, nothing is lost, and a retry (the automatic one
// before the next AddNode/RemoveNode) re-drains exactly the unfinished
// sources. The other sources proceed independently.
func (m *Migrator) run(mig *client.Migration) error {
	m.active.Store(true)
	defer m.active.Store(false)
	defer m.observeWindow(time.Now())

	var wg sync.WaitGroup
	errs := make([]error, 0, len(mig.Moved))
	var errMu sync.Mutex
	for source, slots := range mig.Moved {
		wg.Add(1)
		go func(source string, slots []int) {
			defer wg.Done()
			if err := m.drainSource(mig, source, slots); err != nil {
				errMu.Lock()
				errs = append(errs, fmt.Errorf("rebalance: source %s: %w", source, err))
				errMu.Unlock()
			}
		}(source, slots)
	}
	wg.Wait()
	if len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// observeWindow records one migration window's duration; start is the
// moment the window opened (captured by the deferred call's argument).
func (m *Migrator) observeWindow(start time.Time) {
	ns := time.Since(start).Nanoseconds()
	m.windowHist.Record(ns)
	m.lastWindowNS.Store(ns)
}

// Collect emits the migrator's counters and window-duration histogram.
func (m *Migrator) Collect(e *obs.Expo, labels string) {
	st := m.Stats()
	e.Counter("cphash_rebalance_migrations_total", "Topology changes processed.", labels, st.Migrations)
	e.Counter("cphash_rebalance_slots_total", "Slots scheduled for movement.", labels, st.SlotsTotal)
	e.Counter("cphash_rebalance_slots_done_total", "Slots whose dual-read window has closed.", labels, st.SlotsDone)
	e.Counter("cphash_rebalance_entries_total", "Entries streamed off sources.", labels, st.Entries)
	e.Counter("cphash_rebalance_bytes_total", "Value bytes streamed off sources.", labels, st.Bytes)
	e.Counter("cphash_rebalance_replayed_total", "Entries written to their new owners.", labels, st.Replayed)
	e.Counter("cphash_rebalance_replay_errors_total", "Entries that failed to replay.", labels, st.ReplayErrors)
	e.Counter("cphash_rebalance_purged_total", "Stale source entries removed after migration.", labels, st.Purged)
	e.Counter("cphash_rebalance_promotions_total", "Failover promotions completed.", labels, st.Promotions)
	var active float64
	if st.Active {
		active = 1
	}
	e.Gauge("cphash_rebalance_active", "Whether a migration is running (1 = yes).", labels, active)
	e.Gauge("cphash_rebalance_last_window_ns", "Duration of the most recent migration window.", labels, float64(m.lastWindowNS.Load()))
	e.Histogram("cphash_rebalance_window_ns", "Migration window durations in nanoseconds.", labels, m.windowHist.Snapshot())
}

// drainSource migrates one source's moved slots.
func (m *Migrator) drainSource(mig *client.Migration, source string, slots []int) error {
	if m.c.MigratingIn(slots) == 0 {
		// Already drained (a retried plan): the windows are closed, so
		// the data moved and the source was purged — nothing to do.
		return nil
	}
	var set protocol.SlotSet
	for _, s := range slots {
		set.Add(s)
	}
	err := m.c.ScanNode(source, &set, m.batch, func(e protocol.ScanEntry) error {
		m.entries.Add(1)
		m.bytes.Add(int64(len(e.Value)))
		// Replay through the updated ring: the moved key routes to its
		// new owner. INSERT_VER reproduces the stored entry exactly —
		// including embedded string-key framing and the CAS version, so
		// in-flight gets→cas loops survive the move — with its remaining
		// TTL.
		if err := m.c.SetTTLVer(e.Key, e.Value, time.Duration(e.TTL)*time.Millisecond, e.Version); err != nil {
			m.replayErrors.Add(1)
			return err
		}
		m.replayed.Add(1)
		return nil
	})
	if err != nil {
		return err // window stays open; re-running the plan resumes
	}
	m.slotsDone.Add(int64(m.c.MarkMigrated(slots)))
	m.sources.Add(1)
	// Purge the moved entries from the source so they cannot resurface as
	// stale copies if a later topology change (or a rejoin of the same
	// server) hands a slot back. The purge strictly FOLLOWS MarkMigrated:
	// while the window is open, fallback reads depend on the source still
	// holding the data; once it closes, an in-flight dual read that races
	// the purge re-checks its route and retries on the settled owner. A
	// departing member stays addressable (not retired) until its purge is
	// done.
	purged, perr := m.c.PurgeNode(source, &set)
	m.purgedStale.Add(int64(purged))
	if mig.Removed == source {
		if rerr := m.c.RetireNode(source); rerr != nil && perr == nil {
			perr = rerr
		}
	}
	if perr != nil {
		// The window is already closed and the data already moved;
		// report the purge failure but do not undo the migration.
		return fmt.Errorf("purge after migration: %w", perr)
	}
	return nil
}
