package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime/metrics"
	"time"

	"diablo/internal/bench"
	"diablo/internal/chains"
	"diablo/internal/chains/chain"
	"diablo/internal/core"
	"diablo/internal/sim"
	"diablo/internal/simnet"
	"diablo/internal/stream"
	"diablo/internal/wallet"
	"diablo/internal/workloads"
)

// cell is one composed experiment cell and its host-side measurements.
type cell struct {
	setup time.Duration // trace resolution until the first event runs
	run   time.Duration // first event until core.Run returns
	// peakHeap is the largest heap-objects byte count sampled once per
	// virtual second.
	peakHeap uint64
	// peakDepth is the largest mempool depth sampled once per virtual
	// second.
	peakDepth int
	// allocs and gcShare cover the whole cell: heap allocation totals
	// and the collector's share of busy CPU time.
	allocs  allocCounters
	gcShare float64

	traces  []*workloads.Trace
	sources []stream.Source
	params  chain.Params
	wan     *simnet.Network
	net     *chain.Network
	adapter *core.SimAdapter
	result  *core.Result
}

// submitted is the number of simulated transactions the cell submitted.
func (c *cell) submitted() int { return c.result.Summary.Submitted }

// heapObjects names the runtime metric for bytes in heap objects, live or
// not yet swept.
const heapObjects = "/memory/classes/heap/objects:bytes"

// runCell composes and runs w from the exported calls bench.Run makes,
// with the scheduler and network left reachable for measurement. A nil
// lt runs untraced. With setupOnly the scheduler halts at its first
// event, so the cell measures set-up alone.
func runCell(w workload, seed int64, lt *layerTrace, setupOnly bool) (*cell, error) {
	c := &cell{}
	allocs, cpu := readAllocs(), readCPU()
	start := time.Now()
	c.traces = w.traces()
	params, err := chains.ParamsFor(w.chain)
	if err != nil {
		return nil, err
	}
	scheme, err := wallet.SchemeByName("fasthash")
	if err != nil {
		return nil, err
	}
	c.params = params
	sched := sim.NewScheduler(seed)
	if lt != nil {
		lt.attach(sched)
	}
	// The stamp is the first event at t=0 (lowest sequence number), so it
	// marks the moment set-up ends and the event loop begins.
	var first time.Time
	sched.AtKind(sim.KindObserver, 0, func() {
		first = time.Now()
		if setupOnly {
			sched.Halt()
		}
	})
	heap := []metrics.Sample{{Name: heapObjects}}
	sched.EveryObserver(time.Second, func() {
		metrics.Read(heap)
		if v := heap[0].Value.Uint64(); v > c.peakHeap {
			c.peakHeap = v
		}
		if d := c.net.Pool.Len(); d > c.peakDepth {
			c.peakDepth = d
		}
	})

	c.wan = simnet.New(sched)
	c.wan.SeedFaults(seed)
	cfg := w.config
	c.net = chain.Deploy(sched, c.wan, params, chain.Deployment{
		Nodes:   cfg.Nodes,
		VCPUs:   cfg.VCPUs,
		Regions: cfg.Regions,
	})
	c.net.Exec.CacheAfter = bench.DefaultCacheAfter
	accounts := cfg.AccountsFor(w.chain)
	wal := wallet.New(scheme, fmt.Sprintf("%s-%s-%d", w.chain, cfg.Name, seed), accounts)
	c.adapter = core.NewSimAdapter(c.net, wal)
	var bc core.Blockchain = c.adapter
	if lt != nil {
		bc = lt.wrap(bc)
	}
	sources, err := stream.BuildAll(w.streams, seed)
	if err != nil {
		return nil, err
	}
	c.sources = sources

	c.net.Start()
	res, err := core.Run(sched, bc, core.BenchmarkSpec{
		Traces:   c.traces,
		Streams:  sources,
		Accounts: accounts,
		Seed:     seed,
		Tail:     w.tail,
	})
	end := time.Now()
	c.allocs, c.gcShare = readAllocs().since(allocs), readCPU().gcShare(cpu)
	c.net.Stop()
	if err != nil {
		return nil, err
	}
	if first.IsZero() {
		return nil, fmt.Errorf("%s: the event loop never ran", w.name)
	}
	c.result = res
	c.setup = first.Sub(start)
	c.run = end.Sub(first)
	return c, nil
}

// digest hashes the cell's simulated output: the summary, every per-tx
// record, the block count and the final state root. No wall-clock value
// enters it.
func digest(res *core.Result, blocks uint64, root [32]byte) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	s := res.Summary
	for _, v := range []int64{
		int64(s.Submitted), int64(s.Committed), int64(s.Aborted), int64(s.Pending),
		int64(s.CommittedInWindow), int64(s.Duration), int64(s.AvgLatency),
		int64(s.MedianLatency), int64(s.P95Latency), int64(s.P99Latency), int64(s.MaxLatency),
	} {
		put(uint64(v))
	}
	for _, f := range []float64{s.AvgLoadTPS, s.ThroughputTPS, s.CommitRatio} {
		put(math.Float64bits(f))
	}
	put(uint64(len(res.Records)))
	for _, r := range res.Records {
		put(uint64(r.Submit))
		put(uint64(r.Commit))
		if r.Aborted {
			put(1)
		} else {
			put(0)
		}
	}
	put(blocks)
	h.Write(root[:])
	return hex.EncodeToString(h.Sum(nil))
}

// digest hashes the cell's simulated output.
func (c *cell) digest() string {
	return digest(c.result, c.net.Height(), c.net.Exec.StateRoot())
}
