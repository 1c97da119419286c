// Command hostbench measures the simulator's host-side cost per experiment
// cell: how many simulated transactions one host second pushes through
// set-up and the event loop, how long each phase takes, and how large the
// heap grows. With --trace 1 it instead splits a cell's host time across
// the program's modules by timing calls into their public functions.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	python3 hostbench/run.py --workload native-burst --seed 1 --seconds 40 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are one JSON
// record per measured cell, each carrying its provenance.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"diablo/internal/sim"
)

func main() {
	name := flag.String("workload", "", "workload to run: native-burst, wan-consensus, dapp-backlog or stream-mint")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 40, "host seconds to measure for")
	trace := flag.Int("trace", 0, "1 reports the per-layer split instead of the end-to-end metrics")
	references := flag.Int("references", 0, "print the reference digests of seeds 0..N-1 for every workload and exit")
	flag.Parse()

	if *references > 0 {
		if err := writeReferences(os.Stdout, *references); err != nil {
			fmt.Fprintln(os.Stderr, "hostbench:", err)
			os.Exit(1)
		}
		return
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "hostbench: need --workload <name> --seed <n> --seconds <n ≥ 1> --trace <0|1>")
		if err != nil {
			fmt.Fprintln(os.Stderr, "hostbench:", err)
		}
		os.Exit(2)
	}
	b := &benchRun{
		w:      w,
		seed:   *seed,
		begin:  time.Now(),
		budget: time.Duration(*seconds) * time.Second,
		prov:   newProvenance(w.name, *seed),
		out:    json.NewEncoder(os.Stdout),
	}
	// Finding the reference may run bench.Run once; it counts against the
	// budget, so a run lasts about --seconds whatever its seed.
	if b.check, err = newChecker(w, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	var res result
	if *trace == 1 {
		res, err = b.traced()
	} else {
		res, err = b.untraced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
	if err := b.out.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
		os.Exit(1)
	}
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one measured cell, printed as it finishes.
type record struct {
	Kind       string     `json:"record"`
	Index      int        `json:"index"`
	SetupS     float64    `json:"setup_s"`
	RunS       float64    `json:"run_s,omitempty"`
	Tx         int        `json:"tx,omitempty"`
	Digest     string     `json:"digest,omitempty"`
	Error      string     `json:"error,omitempty"`
	Provenance provenance `json:"provenance"`
}

// benchRun is one invocation: a workload, a seed and a time budget
// counted from begin.
type benchRun struct {
	w      workload
	seed   int64
	begin  time.Time
	budget time.Duration
	prov   provenance
	out    *json.Encoder
	check  *checker

	attempted, failed int
}

// emit prints a record; a record with an error counts as a failed run.
func (b *benchRun) emit(r record) {
	r.Provenance = b.prov
	if r.Error != "" {
		b.failed++
	}
	if err := b.out.Encode(r); err != nil {
		fmt.Fprintln(os.Stderr, "hostbench:", err)
	}
}

// cell runs one checked cell after a collection, so every cell starts
// from the same heap state. It returns nil when the cell could not run; a
// cell that ran but simulated something else is returned, and counted
// as failed.
func (b *benchRun) cell(kind string, lt *layerTrace) *cell {
	runtime.GC()
	b.attempted++
	r := record{Kind: kind, Index: b.attempted}
	c, err := runCell(b.w, b.seed, lt, false)
	if err != nil {
		r.Error = err.Error()
		b.emit(r)
		return nil
	}
	r.SetupS, r.RunS, r.Tx, r.Digest = c.setup.Seconds(), c.run.Seconds(), c.submitted(), c.digest()
	if err := b.check.verify(c); err != nil {
		r.Error = err.Error()
	}
	b.emit(r)
	return c
}

// setupReps is how many set-up-only cells an untraced run adds to the
// set-up samples of its full cells.
const setupReps = 20

// untraced measures the end-to-end metrics: full cells until the budget
// is spent, then set-up-only cells.
func (b *benchRun) untraced() (result, error) {
	var txps, runs, setups, heaps []float64
	for {
		t := time.Now()
		if c := b.cell("cell", nil); c != nil {
			txps = append(txps, float64(c.submitted())/(c.setup+c.run).Seconds())
			runs = append(runs, c.run.Seconds())
			setups = append(setups, c.setup.Seconds())
			heaps = append(heaps, float64(c.peakHeap)/1e6)
		}
		if time.Since(b.begin)+time.Since(t) > b.budget {
			break
		}
	}
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		c, err := runCell(b.w, b.seed, nil, true)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, c.setup.Seconds())
		b.emit(record{Kind: "setup", Index: i + 1, SetupS: c.setup.Seconds()})
	}
	if len(runs) == 0 {
		return result{}, fmt.Errorf("%s: no cell completed", b.w.name)
	}
	return result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics: map[string]metric{
			"tx_per_s":     {median(txps), "1/s"},
			"run_s":        {median(runs), "s"},
			"setup_s":      {median(setups), "s"},
			"peak_heap_mb": {median(heaps), "MB"},
		},
	}, nil
}

// traced alternates untraced and traced cells until the budget is spent
// and reports each per-layer metric's median over the traced cells.
func (b *benchRun) traced() (result, error) {
	samples := map[string][]float64{}
	units := map[string]string{}
	add := func(name, unit string, v float64) {
		samples[name] = append(samples[name], v)
		units[name] = unit
	}
	var plainRuns, tracedRuns []float64
	for {
		t := time.Now()
		if c := b.cell("cell", nil); c != nil {
			tx := float64(c.submitted())
			add("run.alloc_bytes_per_tx", "B/tx", float64(c.allocs.bytes)/tx)
			add("run.allocs_per_tx", "allocs/tx", float64(c.allocs.objects)/tx)
			add("run.gc_cpu_share", "ratio", c.gcShare)
			plainRuns = append(plainRuns, c.run.Seconds())
		}
		lt := &layerTrace{}
		if tc := b.cell("traced", lt); tc != nil {
			layers, err := b.layerMetrics(tc, lt)
			if err != nil {
				b.emit(record{Kind: "layers", Index: b.attempted, Error: err.Error()})
			} else {
				for _, m := range layers {
					add(m.name, m.unit, m.value)
				}
				tracedRuns = append(tracedRuns, tc.run.Seconds())
			}
		}
		if time.Since(b.begin)+time.Since(t) > b.budget {
			break
		}
	}
	if len(plainRuns) == 0 || len(tracedRuns) == 0 {
		return result{}, fmt.Errorf("%s: no traced pair completed", b.w.name)
	}
	add("run.trace_overhead", "ratio", median(tracedRuns)/median(plainRuns))
	metrics := map[string]metric{}
	for name, vs := range samples {
		metrics[name] = metric{median(vs), units[name]}
	}
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}, nil
}

// layerMetric is one per-layer number from a traced cell.
type layerMetric struct {
	name, unit string
	value      float64
}

// layerMetrics splits a traced cell's host cost across the modules, and
// runs the execution replay and ID checks that the exec and types
// numbers rest on.
func (b *benchRun) layerMetrics(c *cell, lt *layerTrace) ([]layerMetric, error) {
	replay, err := replayLedger(c)
	if err != nil {
		return nil, err
	}
	idTime, ids, err := timeIDs(c)
	if err != nil {
		return nil, err
	}
	expand, err := timeExpand(c)
	if err != nil {
		return nil, err
	}
	next, err := timeStreams(b.w, b.seed, c)
	if err != nil {
		return nil, err
	}
	summarize, err := timeSummarize(c)
	if err != nil {
		return nil, err
	}

	tx := float64(c.submitted())
	events := float64(lt.totalEvents())
	blocks := float64(c.net.Height())
	msgs := float64(c.wan.Delivered)
	ns := func(d time.Duration) float64 { return float64(d.Nanoseconds()) }
	ms := func(d time.Duration) float64 { return ns(d) / 1e6 }
	per := func(v, n float64) float64 {
		if n == 0 {
			return 0
		}
		return v / n
	}
	loop := c.run - summarize
	submission := lt.busy[sim.KindSubmission]
	out := []layerMetric{
		{"sim.events", "count", events},
		{"sim.dispatch_ns_per_event", "ns/event", per(ns(loop-lt.totalBusy()), events)},
		{"sim.peak_pending", "count", float64(lt.peakLive)},
		{"simnet.msgs", "count", msgs},
		{"simnet.bytes", "B", float64(c.wan.BytesSent)},
		{"simnet.delivery_ns_per_msg", "ns/msg", per(ns(lt.busy[sim.KindDelivery]), msgs)},
		{"core.encode_ns_per_tx", "ns/tx", per(ns(lt.encode), tx)},
		{"core.trigger_ns_per_tx", "ns/tx", per(ns(lt.trigger), tx)},
		{"core.observe_ns_per_tx", "ns/tx", per(ns(lt.observe), tx)},
		{"core.submit_overhead_ns_per_tx", "ns/tx", per(ns(submission-lt.encode-lt.trigger), tx)},
		{"workloads.expand_ns_per_tx", "ns/tx", per(ns(expand), tx)},
		{"stream.next_ns_per_tx", "ns/tx", per(ns(next), tx)},
		{"types.id_ns_per_tx", "ns/tx", per(ns(idTime), float64(ids))},
		{"mempool.peak_depth", "count", float64(c.peakDepth)},
		{"mempool.admitted", "count", float64(c.net.Pool.Accepted())},
		{"mempool.dropped", "count", float64(c.net.Pool.Dropped())},
		{"consensus.blocks", "count", blocks},
		{"consensus.ms_per_block", "ms/block", per(ms(lt.busy[sim.KindConsensus]), blocks)},
		{"consensus.events_per_block", "events/block", per(float64(lt.events[sim.KindConsensus]), blocks)},
		{"exec.ns_per_tx", "ns/tx", per(ns(replay.elapsed), float64(replay.txs))},
		{"exec.allocs_per_tx", "allocs/tx", per(float64(replay.allocs.objects), float64(replay.txs))},
		{"exec.bytes_per_tx", "B/tx", per(float64(replay.allocs.bytes), float64(replay.txs))},
		{"exec.cache_replay_ratio", "ratio", per(float64(replay.replayed), float64(replay.executed+replay.replayed))},
		{"stats.summarize_ms", "ms", ms(summarize)},
	}
	for _, k := range []sim.EventKind{sim.KindConsensus, sim.KindDelivery, sim.KindClient, sim.KindSubmission} {
		out = append(out,
			layerMetric{"sim." + k.String() + "_ms", "ms", ms(lt.busy[k])},
			layerMetric{"sim." + k.String() + "_events", "count", float64(lt.events[k])})
	}
	return out, nil
}

// median returns the middle value of vs (the mean of the two middle
// values for an even count).
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
