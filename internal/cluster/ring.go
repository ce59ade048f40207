// Package cluster maps the CPHash 60-bit key space onto the member nodes
// of a multi-server deployment. It is the client-side analogue of the
// paper's Figure 13/14 setup, where one client machine spreads keys over
// many memcached-class server instances; here the spreading is factored
// into a reusable routing layer so the load generator, the client SDK and
// the examples all share one source of truth for key→node placement.
//
// The design follows the fixed-continuum hash rings used by production
// storage engines (e.g. the influxdb tsm1 ring): the key space is first
// folded onto a constant number of slots — 256, the top eight bits of the
// mixed key — and the slots, not the keys, are what get assigned to nodes.
// Keys never move between slots; membership changes only remap slots.
//
// Slot→node assignment uses highest-random-weight (rendezvous) hashing:
// every (node, slot) pair gets a deterministic score and each slot is owned
// by its highest-scoring member. That gives the two properties the routing
// layer needs, by construction rather than by bookkeeping:
//
//   - Determinism: the assignment is a pure function of the member-ID set.
//     Two processes (or one process before and after a restart) that see
//     the same membership route every key identically, with no shared
//     state and no dependence on join order.
//
//   - Minimal movement: adding a node moves exactly the slots the new node
//     wins (every moved slot moves TO it); removing a node moves exactly
//     the slots it owned (every moved slot moves FROM it). No third node's
//     slots are ever disturbed.
//
// A Ring is not safe for concurrent use; callers that mutate membership
// while routing (none of the in-tree ones do) must provide their own
// locking.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"

	"cphash/internal/partition"
	"cphash/internal/protocol"
)

// Slots is the fixed size of the hash continuum. Every key deterministically
// folds onto one of these slots, and membership changes remap slots, never
// keys. 256 keeps the owner table a single cache-friendly array while still
// spreading load evenly over any practical node count.
const Slots = 256

// MaxNodes bounds ring membership: with 256 slots, more members than slots
// could not all own keys.
const MaxNodes = Slots

// The SCAN/PURGE wire slot bitmap indexes this same continuum; the two
// constants must agree (both expressions are negative if they diverge in
// either direction, and constant underflow of a uint fails to compile).
const (
	_ = uint(Slots - protocol.SlotCount)
	_ = uint(protocol.SlotCount - Slots)
)

// SlotOf returns the continuum slot of a fixed 60-bit key: the top eight
// bits of the splitmix64-mixed key. The same mixer drives bucket and
// partition selection inside the servers, but those consume low bits, so
// slot choice is independent of intra-server placement.
func SlotOf(key uint64) int {
	return partition.SlotOfKey(key)
}

// SlotOfString returns the continuum slot of a string key, which routes
// through its 60-bit protocol hash so client and server agree on placement.
func SlotOfString(key []byte) int {
	return SlotOf(protocol.HashStringKey(key))
}

// Ring is a fixed 256-slot continuum over a set of member nodes.
type Ring struct {
	ids    []string // member IDs, sorted, unique
	hashes []uint64 // FNV-1a of each ID, aligned with ids
	owner  [Slots]uint16
}

// New returns a ring over the given member IDs (typically "host:port"
// addresses). IDs must be non-empty and unique; order does not matter.
func New(ids []string) (*Ring, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	if len(ids) > MaxNodes {
		return nil, fmt.Errorf("cluster: %d nodes exceed the %d-slot continuum", len(ids), MaxNodes)
	}
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	for i, id := range sorted {
		if id == "" {
			return nil, fmt.Errorf("cluster: empty node ID")
		}
		if i > 0 && sorted[i-1] == id {
			return nil, fmt.Errorf("cluster: duplicate node %q", id)
		}
	}
	r := &Ring{ids: sorted}
	r.hashes = make([]uint64, len(sorted))
	for i, id := range sorted {
		r.hashes[i] = idHash(id)
	}
	r.assign()
	return r, nil
}

// Clone returns an independent copy of the ring; mutating one does not
// affect the other. Callers that publish snapshots of a mutable ring
// (the client SDK) hand out clones.
func (r *Ring) Clone() *Ring {
	return &Ring{
		ids:    append([]string(nil), r.ids...),
		hashes: append([]uint64(nil), r.hashes...),
		owner:  r.owner,
	}
}

// idHash seeds a member's rendezvous scores from its ID.
func idHash(id string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(id))
	return h.Sum64()
}

// score is the rendezvous weight of member hash h for a slot. Mixing the
// slot through splitmix64 first decorrelates scores across slots even for
// adjacent slot numbers.
func score(h uint64, slot int) uint64 {
	return partition.Mix64(h ^ partition.Mix64(uint64(slot)+0x9e3779b97f4a7c15))
}

// assign recomputes the owner table from the member set. It is a pure
// function of the sorted ID list: ties (only possible under a 64-bit hash
// collision between distinct IDs) break toward the lexicographically
// smaller ID, so the result is still deterministic.
func (r *Ring) assign() {
	for s := 0; s < Slots; s++ {
		best, bestScore := 0, score(r.hashes[0], s)
		for i := 1; i < len(r.hashes); i++ {
			if sc := score(r.hashes[i], s); sc > bestScore {
				best, bestScore = i, sc
			}
		}
		r.owner[s] = uint16(best)
	}
}

// Nodes returns the member IDs in sorted order (a copy).
func (r *Ring) Nodes() []string {
	return append([]string(nil), r.ids...)
}

// Len returns the number of member nodes.
func (r *Ring) Len() int { return len(r.ids) }

// Contains reports whether id is a member.
func (r *Ring) Contains(id string) bool { return r.indexOf(id) >= 0 }

// Owner returns the member that owns a continuum slot.
func (r *Ring) Owner(slot int) string {
	return r.ids[r.owner[slot]]
}

// Owners snapshots the whole owner table as member IDs. Migration planners
// diff two of these to learn which slots moved where.
func (r *Ring) Owners() [Slots]string {
	return r.ownerIDs()
}

// Standby returns the slot's second-ranked member by rendezvous score —
// the member the slot would land on if its owner departed, and therefore
// the natural home for the slot's replica. Returns "" on a single-member
// ring. Allocation-free: the client read path consults it per request.
//
// The replication design leans on a rendezvous identity here: removing a
// slot's owner reassigns the slot to exactly this member (the scores of
// the survivors are unchanged by the removal, so the previous runner-up
// wins). Placing each slot's replica on Standby(slot) thus means failover
// promotion needs no data movement at all — RemoveNode(owner) points the
// slot at the member already holding its replicated data. The ring
// property test asserts this identity over random memberships.
func (r *Ring) Standby(slot int) string {
	if len(r.ids) < 2 {
		return ""
	}
	owner := int(r.owner[slot])
	second, secondScore := -1, uint64(0)
	for i, h := range r.hashes {
		if i == owner {
			continue
		}
		sc := score(h, slot)
		// Ties break toward the lexicographically smaller ID, matching
		// assign(): ids is sorted, so the first index at a score wins.
		if second < 0 || sc > secondScore {
			second, secondScore = i, sc
		}
	}
	return r.ids[second]
}

// RankedOwner returns the member at the given rendezvous rank for a
// slot: rank 0 is the owner, rank 1 the standby, rank 2 the standby's
// standby, and so on ("" when rank is out of range). Allocation-free —
// the client read path consults it per follower-routed request when
// falling through a replica chain — via iterative selection instead of
// the sort RankedOwners performs: each step finds the best (score, idx)
// pair strictly after the previous pick in descending-score,
// ascending-index order, the exact order assign() and RankedOwners use.
//
// The rendezvous rank-shift identity generalizes the Standby one:
// removing the owner of a slot leaves every survivor's score untouched,
// so each member at rank i moves to rank i-1. A replica chain placed on
// ranks 1..d-1 therefore survives d-1 successive owner failures with no
// data movement at all: every promotion hands the slot to a member
// already holding it. The ring property test asserts the identity over
// random memberships.
func (r *Ring) RankedOwner(slot, rank int) string {
	if rank < 0 || rank >= len(r.ids) {
		return ""
	}
	prevIdx := -1
	var prevScore uint64
	for k := 0; k <= rank; k++ {
		best := -1
		var bestScore uint64
		for i, h := range r.hashes {
			sc := score(h, slot)
			if prevIdx >= 0 && (sc > prevScore || (sc == prevScore && i <= prevIdx)) {
				continue // already picked at an earlier rank
			}
			// Strict > keeps the smallest index on a score tie, matching
			// assign()'s lexicographic tie-break (ids is sorted).
			if best < 0 || sc > bestScore {
				best, bestScore = i, sc
			}
		}
		prevIdx, prevScore = best, bestScore
	}
	return r.ids[prevIdx]
}

// Replicas returns the members holding a slot's replicas under a
// replication factor of depth: the rendezvous ranks 1..depth-1, in rank
// order (nil when depth <= 1 or the ring has a single member). The
// owner (rank 0) is excluded; depth is clamped to the member count.
func (r *Ring) Replicas(slot, depth int) []string {
	ranked := r.RankedOwners(slot, depth)
	if len(ranked) <= 1 {
		return nil
	}
	return ranked[1:]
}

// RankedOwners returns the top-k members for a slot in descending
// rendezvous-score order; rank 0 is the owner, rank 1 the standby, and
// so on. k is clamped to the member count. Replica chains of depth d
// place copies on ranks 1..d-1.
func (r *Ring) RankedOwners(slot, k int) []string {
	if k > len(r.ids) {
		k = len(r.ids)
	}
	if k <= 0 {
		return nil
	}
	type ranked struct {
		idx   int
		score uint64
	}
	all := make([]ranked, len(r.hashes))
	for i, h := range r.hashes {
		all[i] = ranked{i, score(h, slot)}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].score != all[b].score {
			return all[a].score > all[b].score
		}
		return all[a].idx < all[b].idx // lexicographic tie-break, as assign()
	})
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = r.ids[all[i].idx]
	}
	return out
}

// NodeOf routes a fixed 60-bit key to its owning member.
func (r *Ring) NodeOf(key uint64) string {
	return r.ids[r.owner[SlotOf(key)]]
}

// NodeOfString routes a string key to its owning member.
func (r *Ring) NodeOfString(key []byte) string {
	return r.ids[r.owner[SlotOfString(key)]]
}

// SlotCounts reports how many continuum slots each member owns — the
// ring-level per-node load statistic (keys spread uniformly over slots, so
// slot share approximates key share).
func (r *Ring) SlotCounts() map[string]int {
	out := make(map[string]int, len(r.ids))
	for _, id := range r.ids {
		out[id] = 0
	}
	for s := 0; s < Slots; s++ {
		out[r.ids[r.owner[s]]]++
	}
	return out
}

func (r *Ring) indexOf(id string) int {
	i := sort.SearchStrings(r.ids, id)
	if i < len(r.ids) && r.ids[i] == id {
		return i
	}
	return -1
}

// AddNode adds a member and rebalances, returning the slots that moved.
// Rendezvous hashing guarantees every moved slot moves to the new member;
// the property test asserts it.
func (r *Ring) AddNode(id string) (moved []int, err error) {
	if id == "" {
		return nil, fmt.Errorf("cluster: empty node ID")
	}
	if r.indexOf(id) >= 0 {
		return nil, fmt.Errorf("cluster: node %q already present", id)
	}
	if len(r.ids) == MaxNodes {
		return nil, fmt.Errorf("cluster: ring is full (%d nodes)", MaxNodes)
	}
	before := r.ownerIDs()
	i := sort.SearchStrings(r.ids, id)
	r.ids = append(r.ids[:i], append([]string{id}, r.ids[i:]...)...)
	r.hashes = make([]uint64, len(r.ids))
	for j, m := range r.ids {
		r.hashes[j] = idHash(m)
	}
	r.assign()
	return r.diff(before), nil
}

// RemoveNode removes a member and rebalances, returning the slots that
// moved — exactly the slots the departed member owned. The last member
// cannot be removed; a ring always routes somewhere.
func (r *Ring) RemoveNode(id string) (moved []int, err error) {
	i := r.indexOf(id)
	if i < 0 {
		return nil, fmt.Errorf("cluster: node %q not in ring", id)
	}
	if len(r.ids) == 1 {
		return nil, fmt.Errorf("cluster: cannot remove the last node %q", id)
	}
	before := r.ownerIDs()
	r.ids = append(r.ids[:i], r.ids[i+1:]...)
	r.hashes = append(r.hashes[:i], r.hashes[i+1:]...)
	r.assign()
	return r.diff(before), nil
}

// ownerIDs snapshots the owner table as IDs (stable across reindexing).
func (r *Ring) ownerIDs() [Slots]string {
	var out [Slots]string
	for s := 0; s < Slots; s++ {
		out[s] = r.ids[r.owner[s]]
	}
	return out
}

// diff lists the slots whose owner changed relative to a snapshot.
func (r *Ring) diff(before [Slots]string) []int {
	var moved []int
	for s := 0; s < Slots; s++ {
		if before[s] != r.ids[r.owner[s]] {
			moved = append(moved, s)
		}
	}
	return moved
}
