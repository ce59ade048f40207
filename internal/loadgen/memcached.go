// The memcached text-protocol driver: the same workload.Spec streams,
// driven at mctext listeners through the in-repo text client instead of
// the native pipelined SDK. Keys route to listeners by the same 256-slot
// continuum the native client uses, so one key always lands on one
// instance and hit verification stays exact across both protocols.
//
// The text protocol has no response windows, so sessions run
// synchronously — sets are individual round trips and each window's
// lookups coalesce into one multi-key `get` per node. Expect lower
// throughput than the native path; the point of this driver is driving
// the front-end with realistic shapes, not peak qps.

package loadgen

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cphash/internal/client"
	"cphash/internal/cluster"
	"cphash/internal/mcclient"
	"cphash/internal/obs"
	"cphash/internal/workload"
)

// maxGetBatch mirrors mctext's per-line key limit for multi-key get.
const maxGetBatch = 64

// RunMemcached drives cfg's workload against memcached text listeners
// at cfg.Addrs. Validate is honored; Pipeline bounds the multi-get
// batch. The Result's Nodes map is empty (the text client keeps no
// per-node counters).
func RunMemcached(cfg Config) (Result, error) {
	if cfg.Conns <= 0 {
		cfg.Conns = 4
	}
	if cfg.Pipeline <= 0 {
		cfg.Pipeline = 64
	}
	if cfg.OpsPerConn <= 0 {
		cfg.OpsPerConn = 10000
	}
	if err := cfg.Spec.Validate(); err != nil {
		return Result{}, err
	}
	ring, err := cluster.New(cfg.Addrs)
	if err != nil {
		return Result{}, fmt.Errorf("loadgen: %w", err)
	}

	var (
		ops, hits, misses, bad atomic.Int64
		wg                     sync.WaitGroup
		firstErr               atomic.Value
		hist                   obs.Hist
	)

	start := time.Now()
	for ci := 0; ci < cfg.Conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			if err := runTextConn(ring, cfg, ci, &hist, &ops, &hits, &misses, &bad); err != nil {
				firstErr.CompareAndSwap(nil, err)
			}
		}(ci)
	}
	wg.Wait()
	res := Result{
		Ops:      ops.Load(),
		Hits:     hits.Load(),
		Misses:   misses.Load(),
		BadBytes: bad.Load(),
		Elapsed:  time.Since(start),
		Latency:  hist.Snapshot(),
		Nodes:    map[string]client.Stats{},
	}
	if err, _ := firstErr.Load().(error); err != nil {
		return res, err
	}
	return res, nil
}

// textKey renders a native 60-bit key as a memcached key.
func textKey(key uint64) string {
	return "k" + strconv.FormatUint(key, 16)
}

// runTextConn drives one synchronous text session: inserts as they are
// drawn, lookups coalesced per node into one multi-key get per window.
func runTextConn(ring *cluster.Ring, cfg Config, ci int, hist *obs.Hist, ops, hits, misses, bad *atomic.Int64) error {
	clients := map[string]*mcclient.Client{}
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	clientFor := func(addr string) (*mcclient.Client, error) {
		if c := clients[addr]; c != nil {
			return c, nil
		}
		c, err := mcclient.Dial(addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		clients[addr] = c
		return c, nil
	}

	spec := cfg.Spec
	spec.Seed = cfg.Spec.Seed + uint64(ci)*0x9e3779b9 + 17
	gen, err := workload.NewGenerator(spec)
	if err != nil {
		return err
	}

	valBuf := make([]byte, cfg.Spec.MaxValueSize())
	pendingKeys := map[string][]uint64{} // addr → native keys to multi-get

	remaining := cfg.OpsPerConn
	for remaining > 0 {
		window := cfg.Pipeline
		if window > remaining {
			window = remaining
		}
		for addr := range pendingKeys {
			pendingKeys[addr] = pendingKeys[addr][:0]
		}
		t0 := time.Now()
		for i := 0; i < window; i++ {
			kind, key := gen.Next()
			addr := ring.NodeOf(uint64(key))
			switch kind {
			case workload.Insert:
				c, err := clientFor(addr)
				if err != nil {
					return fmt.Errorf("loadgen: dial %s: %w", addr, err)
				}
				v := cfg.Spec.FillValue(key, valBuf)
				if err := c.Set(textKey(uint64(key)), v, 0, 0); err != nil {
					return fmt.Errorf("loadgen: set: %w", err)
				}
			case workload.Lookup:
				pendingKeys[addr] = append(pendingKeys[addr], uint64(key))
			}
		}
		for addr, keys := range pendingKeys {
			for head := 0; head < len(keys); head += maxGetBatch {
				batch := keys[head:min(head+maxGetBatch, len(keys))]
				names := make([]string, len(batch))
				for i, k := range batch {
					names[i] = textKey(k)
				}
				c, err := clientFor(addr)
				if err != nil {
					return fmt.Errorf("loadgen: dial %s: %w", addr, err)
				}
				got, err := c.GetMulti(names...)
				if err != nil {
					return fmt.Errorf("loadgen: get: %w", err)
				}
				for i, k := range batch {
					item := got[names[i]]
					if item == nil {
						misses.Add(1)
						continue
					}
					hits.Add(1)
					if cfg.Validate && !cfg.Spec.CheckValue(k, item.Value) {
						bad.Add(1)
					}
				}
			}
		}
		hist.Record(time.Since(t0).Nanoseconds())
		ops.Add(int64(window))
		remaining -= window
	}
	return nil
}
