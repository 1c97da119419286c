package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"diablo/internal/bench"
	"diablo/internal/stream"
	"diablo/internal/types"
	"diablo/internal/workloads"
)

const testSeed = 7

// shortened returns a scaled-down copy of w for tests: the first few
// seconds of its input on at most 20 nodes, with a short tail. Its name
// differs, so no stored reference applies to it.
func (w workload) shortened() workload {
	const span = 4 * time.Second
	w.name += "-short"
	full := w.traces
	w.traces = func() []*workloads.Trace {
		var out []*workloads.Trace
		for _, tr := range full() {
			out = append(out, tr.Truncated(span))
		}
		return out
	}
	if w.config.Nodes > 20 {
		w.config = w.config.Scaled(w.config.Nodes / 20)
	}
	streams := make([]stream.Config, len(w.streams))
	for i, c := range w.streams {
		c.Duration = span
		streams[i] = c
	}
	w.streams = streams
	w.tail = 10 * time.Second
	return w
}

// TestComposedCellMatchesBenchRun keeps the benchmark on the production
// path: each workload's composed cell simulates what bench.Run does.
func TestComposedCellMatchesBenchRun(t *testing.T) {
	for _, full := range allWorkloads {
		w := full.shortened()
		t.Run(full.name, func(t *testing.T) {
			c, err := runCell(w, testSeed, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			out, err := bench.Run(w.experiment(testSeed))
			if err != nil {
				t.Fatal(err)
			}
			if c.submitted() == 0 || c.net.Height() == 0 {
				t.Fatalf("empty cell: %d tx, %d blocks", c.submitted(), c.net.Height())
			}
			if c.net.Height() != out.Blocks {
				t.Fatalf("blocks: composed %d, bench.Run %d", c.net.Height(), out.Blocks)
			}
			if c.result.Summary != out.Summary {
				t.Fatalf("summary: composed %+v, bench.Run %+v", c.result.Summary, out.Summary)
			}
			got := digest(c.result, c.net.Height(), types.ZeroHash)
			if want := digest(out.Result, out.Blocks, types.ZeroHash); got != want {
				t.Fatalf("per-tx records differ from bench.Run's")
			}
		})
	}
}

// TestTracingIsPure checks that the profiler, the client decorator and
// the observer tickers leave the simulated output unchanged, and that the
// ledger replay reproduces every block's state root.
func TestTracingIsPure(t *testing.T) {
	for _, full := range allWorkloads {
		w := full.shortened()
		t.Run(full.name, func(t *testing.T) {
			plain, err := runCell(w, testSeed, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			lt := &layerTrace{}
			traced, err := runCell(w, testSeed, lt, false)
			if err != nil {
				t.Fatal(err)
			}
			if plain.digest() != traced.digest() {
				t.Fatalf("traced cell simulated something else")
			}
			if lt.totalEvents() == 0 || lt.encode == 0 || lt.trigger == 0 {
				t.Fatalf("tracing saw nothing: %d events, encode %v, trigger %v", lt.totalEvents(), lt.encode, lt.trigger)
			}
			rs, err := replayLedger(traced)
			if err != nil {
				t.Fatal(err)
			}
			if rs.txs == 0 {
				t.Fatalf("replayed no transactions")
			}
		})
	}
}

// TestReplayCatchesDivergence checks that the replay check can fail: a
// tampered state root must be reported.
func TestReplayCatchesDivergence(t *testing.T) {
	w := allWorkloads[0].shortened()
	c, err := runCell(w, testSeed, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	ledger := c.net.Ledger()
	blk := ledger[len(ledger)-1]
	saved := blk.StateRoot
	blk.StateRoot[0] ^= 1
	defer func() { blk.StateRoot = saved }()
	if _, err := replayLedger(c); err == nil {
		t.Fatal("replay accepted a tampered state root")
	}
}

// TestStoredReferences checks seed 0 of every workload against the
// stored reference table at full size.
func TestStoredReferences(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full size")
	}
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			ch, err := newChecker(w, 0)
			if err != nil {
				t.Fatal(err)
			}
			if ch.ref == "" {
				t.Fatalf("no stored reference for seed 0")
			}
			c, err := runCell(w, 0, nil, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := ch.verify(c); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReportsDeclaredMetrics checks that every workload BENCHMARK.json
// declares exists, and runs both modes briefly to check that each reports
// exactly the metrics BENCHMARK.json declares, with their units.
func TestReportsDeclaredMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, d := range spec.Workloads {
		if _, err := workloadByName(d.Name); err != nil {
			t.Errorf("BENCHMARK.json: %v", err)
		}
	}

	w, _ := workloadByName("stream-mint")
	for _, mode := range []struct {
		name string
		want []declared
	}{{"untraced", spec.EndToEnd}, {"traced", spec.PerLayer}} {
		short := w.shortened()
		check, err := newChecker(short, testSeed)
		if err != nil {
			t.Fatal(err)
		}
		b := &benchRun{w: short, seed: testSeed, begin: time.Now(), budget: time.Millisecond, out: json.NewEncoder(io.Discard), check: check}
		var res result
		if mode.name == "traced" {
			res, err = b.traced()
		} else {
			res, err = b.untraced()
		}
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("%s: correct=%v attempted=%d failed=%d", mode.name, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(mode.want) {
			t.Errorf("%s: reports %d metrics, BENCHMARK.json declares %d", mode.name, len(res.Metrics), len(mode.want))
		}
		for _, d := range mode.want {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("%s: metric %s = %+v, declared unit %q", mode.name, d.Name, m, d.Unit)
			}
		}
	}
}

// TestMismatchCountsAsFailed checks that a cell whose output differs from
// the reference is reported as failed, with its timings kept.
func TestMismatchCountsAsFailed(t *testing.T) {
	b := &benchRun{
		w:     allWorkloads[0].shortened(),
		seed:  testSeed,
		out:   json.NewEncoder(io.Discard),
		check: &checker{ref: "not a digest"},
	}
	c := b.cell("cell", nil)
	if c == nil || b.attempted != 1 || b.failed != 1 {
		t.Fatalf("cell=%v attempted=%d failed=%d, want a failed cell with timings", c != nil, b.attempted, b.failed)
	}
}
