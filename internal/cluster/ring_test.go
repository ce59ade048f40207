package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cphash/internal/partition"
	"cphash/internal/protocol"
)

func nodeNames(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("10.0.0.%d:9090", i+1)
	}
	return out
}

// mustNew is New for member sets the tests know to be valid.
func mustNew(ids []string) *Ring {
	r, err := New(ids)
	if err != nil {
		panic(err)
	}
	return r
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("New accepted an empty member set")
	}
	if _, err := New([]string{"a", ""}); err == nil {
		t.Error("New accepted an empty node ID")
	}
	if _, err := New([]string{"a", "b", "a"}); err == nil {
		t.Error("New accepted a duplicate node")
	}
	if _, err := New(nodeNames(MaxNodes + 1)); err == nil {
		t.Errorf("New accepted %d nodes", MaxNodes+1)
	}
	if r, err := New(nodeNames(MaxNodes)); err != nil || r.Len() != MaxNodes {
		t.Errorf("New rejected a full ring: %v", err)
	}
}

// Slot assignment must be a pure function of the member set: same members,
// any insertion order, any process — same owner for every slot. A fresh
// ring stands in for "another process / after restart" because Ring keeps
// no hidden state.
func TestAssignmentDeterminism(t *testing.T) {
	nodes := nodeNames(5)
	a := mustNew(nodes)

	shuffled := append([]string(nil), nodes...)
	rng := rand.New(rand.NewSource(42))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	b := mustNew(shuffled)

	// And a ring that arrives at the same membership via Add/Remove churn.
	c := mustNew(append([]string(nil), nodes[:3]...))
	if _, err := c.AddNode("transient:1"); err != nil {
		t.Fatal(err)
	}
	for _, id := range nodes[3:] {
		if _, err := c.AddNode(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.RemoveNode("transient:1"); err != nil {
		t.Fatal(err)
	}

	for s := 0; s < Slots; s++ {
		if a.Owner(s) != b.Owner(s) {
			t.Fatalf("slot %d: order-dependent assignment (%s vs %s)", s, a.Owner(s), b.Owner(s))
		}
		if a.Owner(s) != c.Owner(s) {
			t.Fatalf("slot %d: history-dependent assignment (%s vs %s)", s, a.Owner(s), c.Owner(s))
		}
	}
	for _, key := range []uint64{0, 1, 7, 1 << 59, uint64(partition.MaxKey)} {
		if a.NodeOf(key) != b.NodeOf(key) {
			t.Fatalf("key %d routes differently across identical rings", key)
		}
	}
}

func TestSlotOfRangeAndMasking(t *testing.T) {
	for _, key := range []uint64{0, 1, 12345, uint64(partition.MaxKey)} {
		s := SlotOf(key)
		if s < 0 || s >= Slots {
			t.Fatalf("SlotOf(%d) = %d out of range", key, s)
		}
	}
	// Keys are routed by their 60-bit value: high bits must not matter.
	if SlotOf(42) != SlotOf(42|1<<63) {
		t.Error("SlotOf depends on bits above the 60-bit key space")
	}
}

func TestStringKeysRouteThroughProtocolHash(t *testing.T) {
	r := mustNew(nodeNames(3))
	for _, k := range []string{"", "a", "user:1234", "some-much-longer-cache-key"} {
		key := []byte(k)
		if got, want := SlotOfString(key), SlotOf(protocol.HashStringKey(key)); got != want {
			t.Fatalf("SlotOfString(%q) = %d, want %d (hash routing)", k, got, want)
		}
		if got, want := r.NodeOfString(key), r.NodeOf(protocol.HashStringKey(key)); got != want {
			t.Fatalf("NodeOfString(%q) = %s, want %s", k, got, want)
		}
	}
}

func TestBalance(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		r := mustNew(nodeNames(n))
		counts := r.SlotCounts()
		if len(counts) != n {
			t.Fatalf("n=%d: SlotCounts has %d entries", n, len(counts))
		}
		total, fair := 0, Slots/n
		for id, c := range counts {
			total += c
			// Rendezvous balance is statistical; allow a wide band but
			// catch gross skew (a node owning half or nothing).
			if c < fair/3 || c > fair*3 {
				t.Errorf("n=%d: node %s owns %d slots (fair share %d)", n, id, c, fair)
			}
		}
		if total != Slots {
			t.Fatalf("n=%d: slot counts sum to %d, want %d", n, total, Slots)
		}
	}
}

// Adding a node must move slots only TO the new node, and the resulting
// assignment must equal a fresh ring over the grown member set.
func TestAddNodeMinimalMovement(t *testing.T) {
	nodes := nodeNames(4)
	r := mustNew(nodes)
	before := make(map[int]string, Slots)
	for s := 0; s < Slots; s++ {
		before[s] = r.Owner(s)
	}

	const newcomer = "10.0.0.99:9090"
	moved, err := r.AddNode(newcomer)
	if err != nil {
		t.Fatal(err)
	}
	if len(moved) == 0 {
		t.Fatal("AddNode moved no slots; newcomer owns nothing")
	}
	movedSet := map[int]bool{}
	for _, s := range moved {
		movedSet[s] = true
		if got := r.Owner(s); got != newcomer {
			t.Fatalf("slot %d moved to %s, not the added node", s, got)
		}
	}
	for s := 0; s < Slots; s++ {
		if !movedSet[s] && r.Owner(s) != before[s] {
			t.Fatalf("slot %d changed owner (%s→%s) without being reported moved",
				s, before[s], r.Owner(s))
		}
	}
	fresh := mustNew(append(append([]string(nil), nodes...), newcomer))
	for s := 0; s < Slots; s++ {
		if r.Owner(s) != fresh.Owner(s) {
			t.Fatalf("slot %d: incremental add (%s) differs from fresh ring (%s)",
				s, r.Owner(s), fresh.Owner(s))
		}
	}
}

// slotsOf returns the continuum slots id owns, ascending.
func slotsOf(r *Ring, id string) []int {
	var out []int
	for s := 0; s < Slots; s++ {
		if r.Owner(s) == id {
			out = append(out, s)
		}
	}
	return out
}

// Removing a node must move exactly the slots it owned, and the resulting
// assignment must equal a fresh ring over the shrunk member set.
func TestRemoveNodeMinimalMovement(t *testing.T) {
	nodes := nodeNames(5)
	r := mustNew(nodes)
	victim := nodes[2]
	victimSlots := slotsOf(r, victim)
	if len(victimSlots) == 0 {
		t.Fatalf("victim %s owns no slots; pick a different fixture", victim)
	}

	moved, err := r.RemoveNode(victim)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(moved, victimSlots) {
		t.Fatalf("moved %v, want exactly the victim's slots %v", moved, victimSlots)
	}
	for _, s := range moved {
		if r.Owner(s) == victim {
			t.Fatalf("slot %d still owned by removed node", s)
		}
	}
	remaining := append(append([]string(nil), nodes[:2]...), nodes[3:]...)
	fresh := mustNew(remaining)
	for s := 0; s < Slots; s++ {
		if r.Owner(s) != fresh.Owner(s) {
			t.Fatalf("slot %d: incremental remove (%s) differs from fresh ring (%s)",
				s, r.Owner(s), fresh.Owner(s))
		}
	}
}

// Churn property: across random add/remove sequences, every rebalance
// moves only slots touching the changed node, and membership invariants
// hold.
func TestChurnProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r := mustNew(nodeNames(3))
	live := map[string]bool{}
	for _, id := range r.Nodes() {
		live[id] = true
	}
	next := 100
	for step := 0; step < 60; step++ {
		if rng.Intn(2) == 0 && r.Len() < 12 {
			id := fmt.Sprintf("churn-%d:9", next)
			next++
			moved, err := r.AddNode(id)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range moved {
				if r.Owner(s) != id {
					t.Fatalf("step %d: add moved slot %d to %s", step, s, r.Owner(s))
				}
			}
			live[id] = true
		} else if r.Len() > 1 {
			ids := r.Nodes()
			id := ids[rng.Intn(len(ids))]
			want := slotsOf(r, id)
			moved, err := r.RemoveNode(id)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(moved, want) {
				t.Fatalf("step %d: remove of %s moved %v, want %v", step, id, moved, want)
			}
			delete(live, id)
		}
		if r.Len() != len(live) {
			t.Fatalf("step %d: ring has %d members, want %d", step, r.Len(), len(live))
		}
	}
}

func TestAddRemoveValidation(t *testing.T) {
	r := mustNew([]string{"a:1"})
	if _, err := r.AddNode("a:1"); err == nil {
		t.Error("AddNode accepted a duplicate")
	}
	if _, err := r.AddNode(""); err == nil {
		t.Error("AddNode accepted an empty ID")
	}
	if _, err := r.RemoveNode("missing:1"); err == nil {
		t.Error("RemoveNode accepted an unknown node")
	}
	if _, err := r.RemoveNode("a:1"); err == nil {
		t.Error("RemoveNode removed the last node")
	}
	full := mustNew(nodeNames(MaxNodes))
	if _, err := full.AddNode("overflow:1"); err == nil {
		t.Error("AddNode grew past the continuum size")
	}
}

// TestStandbyIsPromotionTarget asserts the identity the replication layer
// is built on: for every slot, the standby (rank-1 rendezvous scorer) is
// exactly the member the slot reassigns to when its owner is removed.
// Checked over random membership sets and sizes.
func TestStandbyIsPromotionTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(12)
		names := nodeNames(16)
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		r := mustNew(names[:n])
		for s := 0; s < Slots; s++ {
			owner, standby := r.Owner(s), r.Standby(s)
			if standby == "" || standby == owner {
				t.Fatalf("trial %d slot %d: bad standby %q (owner %q)", trial, s, standby, owner)
			}
			after := r.Clone()
			if _, err := after.RemoveNode(owner); err != nil {
				t.Fatal(err)
			}
			if got := after.Owner(s); got != standby {
				t.Fatalf("trial %d slot %d: owner after removing %s is %s, standby said %s",
					trial, s, owner, got, standby)
			}
		}
	}
}

// TestRankedOwners checks rank order against Owner/Standby and brute-force
// score sorting, plus clamping behavior.
func TestRankedOwners(t *testing.T) {
	r := mustNew(nodeNames(5))
	for s := 0; s < Slots; s++ {
		ranks := r.RankedOwners(s, 3)
		if len(ranks) != 3 {
			t.Fatalf("slot %d: got %d ranks, want 3", s, len(ranks))
		}
		if ranks[0] != r.Owner(s) {
			t.Fatalf("slot %d: rank 0 %s != owner %s", s, ranks[0], r.Owner(s))
		}
		if ranks[1] != r.Standby(s) {
			t.Fatalf("slot %d: rank 1 %s != standby %s", s, ranks[1], r.Standby(s))
		}
		seen := map[string]bool{}
		for _, id := range ranks {
			if seen[id] {
				t.Fatalf("slot %d: duplicate member %s in ranks", s, id)
			}
			seen[id] = true
		}
	}
	if got := r.RankedOwners(0, 99); len(got) != 5 {
		t.Fatalf("RankedOwners over-clamp: got %d, want 5", len(got))
	}
	if got := r.RankedOwners(0, 0); got != nil {
		t.Fatalf("RankedOwners(0) = %v, want nil", got)
	}
	single := mustNew(nodeNames(1))
	if got := single.Standby(7); got != "" {
		t.Fatalf("Standby on single-member ring = %q, want empty", got)
	}
}

// TestRankedOwnerMatchesRankedOwners pins the allocation-free selector
// against the sorting implementation over random memberships, including
// out-of-range ranks.
func TestRankedOwnerMatchesRankedOwners(t *testing.T) {
	rng := rand.New(rand.NewSource(0xfeed))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(10)
		names := nodeNames(16)
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		r := mustNew(names[:n])
		for s := 0; s < Slots; s += 7 {
			ranked := r.RankedOwners(s, n)
			for rank := 0; rank < n; rank++ {
				if got := r.RankedOwner(s, rank); got != ranked[rank] {
					t.Fatalf("trial %d slot %d rank %d: RankedOwner %q != RankedOwners %q",
						trial, s, rank, got, ranked[rank])
				}
			}
			if got := r.RankedOwner(s, n); got != "" {
				t.Fatalf("RankedOwner beyond membership = %q, want empty", got)
			}
			if got := r.RankedOwner(s, -1); got != "" {
				t.Fatalf("RankedOwner(-1) = %q, want empty", got)
			}
		}
	}
}

// TestRankShiftIdentity asserts the depth-N generalization of the
// standby identity: removing a slot's owner shifts every remaining rank
// up by exactly one, so a replica chain on ranks 1..d-1 survives the
// owner's death with no data movement (the new owner and every new
// standby already hold the slot).
func TestRankShiftIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(0xc4a15))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(10)
		names := nodeNames(16)
		rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		r := mustNew(names[:n])
		depth := 2 + rng.Intn(3)
		if depth > n {
			depth = n
		}
		for s := 0; s < Slots; s++ {
			before := r.RankedOwners(s, depth)
			after := r.Clone()
			if _, err := after.RemoveNode(before[0]); err != nil {
				t.Fatal(err)
			}
			got := after.RankedOwners(s, depth-1)
			for i := range got {
				if got[i] != before[i+1] {
					t.Fatalf("trial %d slot %d: rank %d after removal = %s, want pre-removal rank %d = %s",
						trial, s, i, got[i], i+1, before[i+1])
				}
			}
			if reps := r.Replicas(s, depth); len(reps) != depth-1 || reps[0] != before[1] {
				t.Fatalf("trial %d slot %d: Replicas(%d) = %v, want ranks 1..%d of %v",
					trial, s, depth, reps, depth-1, before)
			}
		}
	}
	single := mustNew(nodeNames(1))
	if got := single.Replicas(0, 3); got != nil {
		t.Fatalf("Replicas on single-member ring = %v, want nil", got)
	}
}
