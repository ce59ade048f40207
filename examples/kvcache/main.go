// Kvcache: the full client/server path from Section 4 of the paper inside
// one process — a CPSERVER (CPHASH behind the binary TCP protocol), a
// LOCKSERVER, and memcached-style instances (one-partition LOCKHASH: a
// single lock each, keys split by the client), each driven by the load
// generator with the paper's microbenchmark mix (30% INSERT, 8-byte
// values). All three run the same kvserver, so the miniature Figure 14
// row it prints compares the tables' concurrency schemes and nothing else.
//
//	go run ./examples/kvcache [-ops 20000]
package main

import (
	"flag"
	"fmt"
	"log"

	"cphash/internal/core"
	"cphash/internal/kvserver"
	"cphash/internal/loadgen"
	"cphash/internal/lockhash"
	"cphash/internal/memcache"
	"cphash/internal/partition"
	"cphash/internal/workload"
)

var opsPerConn = flag.Int("ops", 20000, "operations per connection")

func main() {
	flag.Parse()
	spec := workload.Default(256 << 10) // 32k keys
	capBytes := partition.CapacityForValues(spec.NumKeys(), spec.ValueSize)

	drive := func(addrs []string) loadgen.Result {
		res, err := loadgen.Run(loadgen.Config{
			Addrs:      addrs,
			Conns:      2,
			Pipeline:   64,
			Spec:       spec,
			OpsPerConn: *opsPerConn,
			Validate:   true,
		})
		if err != nil {
			log.Fatal(err)
		}
		if res.BadBytes > 0 {
			log.Fatalf("%d corrupt responses", res.BadBytes)
		}
		return res
	}

	// CPSERVER.
	table := core.MustNew(core.Config{Partitions: 2, CapacityBytes: capBytes, MaxClients: 2})
	cpSrv, err := kvserver.Serve(kvserver.Config{
		Addr: "127.0.0.1:0", Workers: 2, NewBackend: kvserver.NewCPHashBackend(table),
	})
	if err != nil {
		log.Fatal(err)
	}
	cpRes := drive([]string{cpSrv.Addr()})
	cpSrv.Close()
	table.Close()
	fmt.Printf("%-22s %s\n", "CPSERVER:", cpRes)

	// LOCKSERVER.
	lt := lockhash.MustNew(lockhash.Config{CapacityBytes: capBytes})
	lhSrv, err := kvserver.Serve(kvserver.Config{
		Addr: "127.0.0.1:0", Workers: 2, NewBackend: kvserver.NewLockHashBackend(lt),
	})
	if err != nil {
		log.Fatal(err)
	}
	lhRes := drive([]string{lhSrv.Addr()})
	lhSrv.Close()
	fmt.Printf("%-22s %s\n", "LOCKSERVER:", lhRes)

	// Memcached-style: two single-lock instances, keys split by the client.
	cluster, err := memcache.ServeCluster(2, capBytes)
	if err != nil {
		log.Fatal(err)
	}
	mcRes := drive(cluster.Addrs())
	cluster.Close()
	fmt.Printf("%-22s %s\n", "memcached-style (×2):", mcRes)

	fmt.Printf("\nCPSERVER/LOCKSERVER ratio: %.2f (the paper measures ≈1.05 at scale)\n",
		cpRes.Throughput()/lhRes.Throughput())
	fmt.Printf("CPSERVER/memcached ratio:  %.2f\n", cpRes.Throughput()/mcRes.Throughput())
}
