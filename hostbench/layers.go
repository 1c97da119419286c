package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"diablo/internal/bench"
	"diablo/internal/chains/chain"
	"diablo/internal/core"
	"diablo/internal/dapps"
	"diablo/internal/sim"
	"diablo/internal/stats"
	"diablo/internal/stream"
	"diablo/internal/types"
	"diablo/internal/wallet"
)

// numKinds bounds the sim.EventKind values the profiler splits time by.
const numKinds = int(sim.KindObserver) + 1

// layerTrace times a cell's calls into the program's modules from the
// outside: a sim.Profiler around every event, and a core.Blockchain
// decorator around every client call. It only observes, so a traced cell
// simulates exactly what an untraced one does.
type layerTrace struct {
	sched *sim.Scheduler

	running  sim.EventKind
	began    time.Time
	busy     [numKinds]time.Duration
	events   [numKinds]uint64
	peakLive int

	encode, trigger, observe time.Duration
}

func (lt *layerTrace) attach(s *sim.Scheduler) {
	lt.sched = s
	s.SetProfiler(lt)
}

// EventScheduled implements sim.Profiler. The span id carries the kind;
// observer events stay untracked so they count nowhere.
func (lt *layerTrace) EventScheduled(kind sim.EventKind, _ sim.Time) uint64 {
	if kind == sim.KindObserver || int(kind) >= numKinds {
		return 0
	}
	return uint64(kind) + 1
}

// EventCancelled implements sim.Profiler.
func (lt *layerTrace) EventCancelled(uint64) {}

// EventRun implements sim.Profiler.
func (lt *layerTrace) EventRun(id uint64, _ sim.Time) {
	if live := lt.sched.Stats().Live; live > lt.peakLive {
		lt.peakLive = live
	}
	lt.running = sim.EventKind(id - 1)
	lt.began = time.Now()
}

// EventDone implements sim.Profiler.
func (lt *layerTrace) EventDone() {
	lt.busy[lt.running] += time.Since(lt.began)
	lt.events[lt.running]++
}

func (lt *layerTrace) totalEvents() uint64 {
	var n uint64
	for _, e := range lt.events {
		n += e
	}
	return n
}

func (lt *layerTrace) totalBusy() time.Duration {
	var d time.Duration
	for _, b := range lt.busy {
		d += b
	}
	return d
}

func (lt *layerTrace) wrap(bc core.Blockchain) core.Blockchain {
	return timedChain{Blockchain: bc, lt: lt}
}

// timedChain decorates a core.Blockchain so every client it creates is
// timed.
type timedChain struct {
	core.Blockchain
	lt *layerTrace
}

func (c timedChain) CreateClient(endpoints []core.Endpoint) (core.Client, error) {
	cl, err := c.Blockchain.CreateClient(endpoints)
	if err != nil {
		return nil, err
	}
	return &timedClient{Client: cl, lt: c.lt}, nil
}

// timedClient times Encode, Trigger and the engine's observation callback.
type timedClient struct {
	core.Client
	lt *layerTrace
}

func (c *timedClient) Encode(spec core.InteractionSpec) (core.Interaction, error) {
	t := time.Now()
	e, err := c.Client.Encode(spec)
	c.lt.encode += time.Since(t)
	return e, err
}

func (c *timedClient) Trigger(e core.Interaction, token any) error {
	t := time.Now()
	err := c.Client.Trigger(e, token)
	c.lt.trigger += time.Since(t)
	return err
}

func (c *timedClient) Observe(fn func(token any, o core.Observation)) {
	c.Client.Observe(func(token any, o core.Observation) {
		t := time.Now()
		fn(token, o)
		c.lt.observe += time.Since(t)
	})
}

// allocCounters reads cumulative heap allocation totals.
type allocCounters struct{ bytes, objects uint64 }

func readAllocs() allocCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return allocCounters{bytes: s[0].Value.Uint64(), objects: s[1].Value.Uint64()}
}

func (a allocCounters) since(b allocCounters) allocCounters {
	return allocCounters{bytes: a.bytes - b.bytes, objects: a.objects - b.objects}
}

// cpuCounters reads the runtime's CPU-time estimates.
type cpuCounters struct{ gc, total, idle float64 }

func readCPU() cpuCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	return cpuCounters{gc: s[0].Value.Float64(), total: s[1].Value.Float64(), idle: s[2].Value.Float64()}
}

// gcShare is the share of busy CPU time spent in the collector since b.
func (a cpuCounters) gcShare(b cpuCounters) float64 {
	busy := (a.total - a.idle) - (b.total - b.idle)
	if busy <= 0 {
		return 0
	}
	return (a.gc - b.gc) / busy
}

// replayStats is the outcome of replaying a cell's ledger.
type replayStats struct {
	txs      int
	elapsed  time.Duration
	allocs   allocCounters
	executed uint64
	replayed uint64
}

// replayLedger re-executes every ledger block through a fresh executor
// set up the way the cell's was, and checks that each block's state root
// and each transaction's receipt come out the same.
func replayLedger(c *cell) (replayStats, error) {
	var rs replayStats
	ex := chain.NewExecutor(c.params.Profile)
	ex.SetCommitment(c.params.StateCommitment)
	ex.CacheAfter = bench.DefaultCacheAfter
	// Contracts are deployed in core.Run's order, by the adapter's
	// deployer, so they land at the same addresses.
	deployer := wallet.NewAccount(c.adapter.Wallet.Scheme, []byte("diablo-primary-deployer"))
	var names []string
	for _, tr := range c.traces {
		names = append(names, tr.DApp)
	}
	for _, src := range c.sources {
		names = append(names, src.DApp())
	}
	deployed := map[string]bool{}
	for _, name := range names {
		if name == "" || deployed[name] {
			continue
		}
		deployed[name] = true
		d, err := dapps.Get(name)
		if err != nil {
			return rs, err
		}
		if _, err := ex.DeployDApp(deployer.Address, d); err != nil {
			return rs, err
		}
	}

	ledger := c.net.Ledger()
	receipts := make([][]*types.Receipt, len(ledger))
	roots := make([]types.Hash, len(ledger))
	runtime.GC()
	before := readAllocs()
	t := time.Now()
	for i, blk := range ledger {
		receipts[i] = ex.ApplyBlock(blk.Txs, blk, c.params)
		roots[i] = ex.StateRoot()
	}
	rs.elapsed = time.Since(t)
	rs.allocs = readAllocs().since(before)

	for i, blk := range ledger {
		if roots[i] != blk.StateRoot {
			return rs, fmt.Errorf("replay: block %d state root %s, ledger has %s", blk.Number, roots[i].Short(), blk.StateRoot.Short())
		}
		for j, tx := range blk.Txs {
			want, ok := c.net.Receipt(tx.ID())
			got := receipts[i][j]
			if !ok || got.Status != want.Status || got.GasUsed != want.GasUsed {
				return rs, fmt.Errorf("replay: block %d tx %d receipt differs from the run's", blk.Number, j)
			}
		}
		rs.txs += len(blk.Txs)
	}
	rs.executed, rs.replayed = ex.Executed, ex.Replayed
	if rs.executed != c.net.Exec.Executed || rs.replayed != c.net.Exec.Replayed {
		return rs, fmt.Errorf("replay: executed/replayed %d/%d, the run's %d/%d",
			rs.executed, rs.replayed, c.net.Exec.Executed, c.net.Exec.Replayed)
	}
	return rs, nil
}

// timeIDs hashes fresh copies of the ledger's transactions, so no cached
// ID is reused, and checks each against the original's.
func timeIDs(c *cell) (time.Duration, int, error) {
	var orig []*types.Transaction
	for _, blk := range c.net.Ledger() {
		orig = append(orig, blk.Txs...)
	}
	fresh := make([]*types.Transaction, len(orig))
	for i, tx := range orig {
		fresh[i] = &types.Transaction{
			Kind: tx.Kind, From: tx.From, To: tx.To, Nonce: tx.Nonce,
			Value: tx.Value, GasLimit: tx.GasLimit, GasPrice: tx.GasPrice,
			Data: tx.Data, Sig: tx.Sig, PubKey: tx.PubKey,
		}
	}
	ids := make([]types.Hash, len(fresh))
	t := time.Now()
	for i, tx := range fresh {
		ids[i] = tx.ID()
	}
	elapsed := time.Since(t)
	for i, tx := range orig {
		if ids[i] != tx.ID() {
			return 0, 0, fmt.Errorf("types: fresh copy of tx %d hashes to %s, original %s", i, ids[i].Short(), tx.ID().Short())
		}
	}
	return elapsed, len(fresh), nil
}

// timeExpand runs Trace.ForEach over the cell's traces.
func timeExpand(c *cell) (time.Duration, error) {
	n := 0
	t := time.Now()
	for _, tr := range c.traces {
		tr.ForEach(func(int, time.Duration) { n++ })
	}
	elapsed := time.Since(t)
	if want := c.submitted() - streamSubmitted(c); n != want {
		return 0, fmt.Errorf("workloads: expanded %d trace entries, the cell submitted %d", n, want)
	}
	return elapsed, nil
}

// streamSubmitted is the number of submissions the cell's streams made.
func streamSubmitted(c *cell) int {
	n := c.submitted()
	for _, tr := range c.traces {
		n -= tr.Total()
	}
	return n
}

// timeStreams builds the workload's streams afresh and drains them.
func timeStreams(w workload, seed int64, c *cell) (time.Duration, error) {
	t := time.Now()
	sources, err := stream.BuildAll(w.streams, seed)
	if err != nil {
		return 0, err
	}
	n := 0
	var it stream.Intent
	for _, src := range sources {
		for src.Next(&it) {
			n++
		}
	}
	elapsed := time.Since(t)
	if n != streamSubmitted(c) {
		return 0, fmt.Errorf("stream: drained %d intents, the cell submitted %d", n, streamSubmitted(c))
	}
	return elapsed, nil
}

// timeSummarize recomputes the cell's summary and checks it.
func timeSummarize(c *cell) (time.Duration, error) {
	t := time.Now()
	s := stats.Summarize(c.result.Records, c.result.Summary.Duration)
	elapsed := time.Since(t)
	if s != c.result.Summary {
		return 0, fmt.Errorf("stats: recomputed summary %+v differs from the run's %+v", s, c.result.Summary)
	}
	return elapsed, nil
}
