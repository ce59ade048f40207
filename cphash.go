// Package cphash is a Go implementation of CPHASH, the cache-partitioned
// hash table of Metreveli, Zeldovich and Kaashoek (MIT-CSAIL-TR-2011-051 /
// PPoPP 2012), together with LOCKHASH, the paper's fine-grained-locking
// baseline, and the key/value cache servers built on both.
//
// A CPHASH table is split into partitions, each owned by a dedicated server
// goroutine. Client goroutines never touch partition state: they send
// Lookup/Insert operations over per-pair single-producer/single-consumer
// rings in shared memory, batched and packed so several messages ride one
// cache line. On large multicore machines this trades one cheap cache-line
// transfer (the message) for the several expensive ones a lock-based table
// pays per operation (lock, bucket, element, LRU list).
//
// # Quick start
//
//	t, _ := cphash.New(cphash.Options{Capacity: 64 << 20})
//	defer t.Close()
//	c := t.MustClient(0)            // one handle per goroutine
//	defer c.Close()
//	c.Put(cphash.KeyOf(42), []byte("value"))
//	v, ok := c.Get(cphash.KeyOf(42), nil)
//	c.PutTTL(cphash.KeyOf(43), []byte("soon gone"), time.Second)
//	c.Delete(cphash.KeyOf(42))
//
// The locking baseline needs no handles:
//
//	l, _ := cphash.NewLocked(cphash.Options{Capacity: 64 << 20})
//	l.Put(7, []byte("x"))
//
// Keys are 60-bit integers, as in the paper; KeyOf masks a uint64 down.
// StringTable (see string.go) implements the paper's Section 8.2 extension
// to arbitrary keys on top of either table.
//
// # Operations, TTLs and expiry
//
// Both tables expose Get, Put, PutTTL and Delete (the KV interface). A
// PutTTL entry becomes invisible once its time-to-live elapses on the
// table's clock (millisecond resolution, rounded up; a TTL of 0 means
// "never expires"). Expiry is lazy, preserving the paper's cheap hot
// path: an expired element is reclaimed at its next lookup, or by the
// bounded sweep a full partition runs before evicting live elements —
// dead weight goes first, so TTLs reduce eviction pressure. Expirations
// are counted separately from deletes and evictions in Stats.Expired.
//
// The TCP servers built on these tables (internal/kvserver, cmd/cpserver)
// speak wire-protocol version 2, which carries DELETE, per-request TTLs
// and variable-length string keys end-to-end; see internal/protocol.
package cphash

import (
	"fmt"
	"time"

	"cphash/internal/core"
	"cphash/internal/lockhash"
	"cphash/internal/partition"
)

// Key is a 60-bit CPHash key.
type Key = partition.Key

// MaxKey is the largest valid key (2^60 − 1). Larger uint64s are masked.
const MaxKey = partition.MaxKey

// KeyOf masks an arbitrary uint64 to the 60-bit key space.
func KeyOf(x uint64) Key { return x & MaxKey }

// Eviction selects the policy used when a table is full.
type Eviction = partition.EvictionPolicy

// Eviction policies.
const (
	// EvictionLRU evicts the least recently used element (default).
	EvictionLRU = partition.EvictLRU
	// EvictionRandom evicts a random element and maintains no LRU state.
	EvictionRandom = partition.EvictRandom
)

// Client is a per-goroutine handle for issuing operations against a Table;
// see Table.Client. It exposes both a synchronous API (Get/Put/Delete) and
// the paper's pipelined asynchronous API (LookupAsync/InsertAsync/Wait).
type Client = core.Client

// Op is an in-flight asynchronous operation; see Client.
type Op = core.Op

// Stats aggregates table activity counters.
type Stats = core.Stats

// Options configures New and NewLocked. The zero value of every field gets
// a sensible default.
type Options struct {
	// Capacity is the table's payload budget in bytes — the memory holding
	// values plus a 40-byte per-element header charge. Required.
	Capacity int
	// Partitions is the partition count. For CPHASH this is also the
	// number of server goroutines (default: GOMAXPROCS). For LOCKHASH it
	// defaults to the paper's 4,096.
	Partitions int
	// Clients caps how many Client handles a CPHASH table hands out
	// (default 1; ignored by NewLocked).
	Clients int
	// Eviction selects the eviction policy (default LRU).
	Eviction Eviction
	// RingCapacity is the per-direction message-ring capacity for CPHASH
	// (power of two; default 4,096; ignored by NewLocked).
	RingCapacity int
	// PinThreads dedicates an OS thread to each CPHASH server goroutine,
	// the closest Go can get to the paper's core pinning. Leave false on
	// machines with few CPUs.
	PinThreads bool
	// Seed makes hashing/eviction deterministic (0 = fixed default).
	Seed uint64
}

// Table is a CPHASH hash table. Operations go through per-goroutine Client
// handles (Table.Client). Close stops the server goroutines.
type Table struct {
	*core.Table
}

// New builds a CPHASH table and starts its server goroutines.
func New(o Options) (*Table, error) {
	if o.Capacity <= 0 {
		return nil, fmt.Errorf("cphash: Options.Capacity must be positive")
	}
	inner, err := core.New(core.Config{
		Partitions:    o.Partitions,
		CapacityBytes: o.Capacity,
		MaxClients:    o.Clients,
		RingCapacity:  o.RingCapacity,
		Policy:        o.Eviction,
		LockOSThread:  o.PinThreads,
		Seed:          o.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Table{inner}, nil
}

// MustNew is New that panics on error.
func MustNew(o Options) *Table {
	t, err := New(o)
	if err != nil {
		panic(err)
	}
	return t
}

// LockedTable is LOCKHASH: the same partition store protected by per-
// partition spinlocks. All methods are safe for arbitrary concurrent use.
type LockedTable = lockhash.Table

// NewLocked builds a LOCKHASH table.
func NewLocked(o Options) (*LockedTable, error) {
	if o.Capacity <= 0 {
		return nil, fmt.Errorf("cphash: Options.Capacity must be positive")
	}
	return lockhash.New(lockhash.Config{
		Partitions:    o.Partitions,
		CapacityBytes: o.Capacity,
		Policy:        o.Eviction,
		Seed:          o.Seed,
	})
}

// MustNewLocked is NewLocked that panics on error.
func MustNewLocked(o Options) *LockedTable {
	t, err := NewLocked(o)
	if err != nil {
		panic(err)
	}
	return t
}

// CapacityForValues converts "n values of valueSize bytes" into the
// Options.Capacity that will hold them, accounting for per-element headers
// and allocator rounding. Use it to size a table in the paper's
// value-bytes convention.
func CapacityForValues(n, valueSize int) int {
	return partition.CapacityForValues(n, valueSize)
}

// KV is the key/value surface shared by a CPHASH Client and a
// LockedTable; StringTable and applications that want to swap the two
// tables program against it.
type KV interface {
	// Get appends the value for key to dst, reporting whether it exists.
	Get(key Key, dst []byte) ([]byte, bool)
	// Put stores value under key, reporting whether space was found.
	Put(key Key, value []byte) bool
	// PutTTL is Put with a time-to-live: the entry becomes invisible once
	// ttl elapses on the table's clock (millisecond resolution, rounded
	// up; 0 = never expires). Expired entries are reclaimed lazily — on
	// their next lookup, or by the sweep eviction runs before sacrificing
	// live elements.
	PutTTL(key Key, value []byte, ttl time.Duration) bool
	// Delete removes key, reporting whether it existed.
	Delete(key Key) bool
}

var (
	_ KV = (*Client)(nil)
	_ KV = (*LockedTable)(nil)
)
