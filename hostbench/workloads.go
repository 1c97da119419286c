package main

import (
	"fmt"
	"time"

	"diablo/internal/bench"
	"diablo/internal/configs"
	"diablo/internal/stream"
	"diablo/internal/workloads"
)

// workload is one experiment cell: a chain in a Table 3 configuration,
// driven open-loop by paper traces or generated streams.
type workload struct {
	name   string
	chain  string
	config *configs.Config
	// traces resolves the trace set; it runs inside the timed set-up.
	traces  func() []*workloads.Trace
	streams []stream.Config
	// tail is the observation tail after the last submission (0 = the
	// engine's default of 120s).
	tail time.Duration
}

var allWorkloads = []workload{
	{
		name:   "native-burst",
		chain:  "solana",
		config: configs.Datacenter,
		traces: func() []*workloads.Trace {
			return []*workloads.Trace{workloads.NativeConstant(10000, 30*time.Second)}
		},
	},
	{
		name:   "wan-consensus",
		chain:  "quorum",
		config: configs.Community,
		traces: func() []*workloads.Trace {
			return []*workloads.Trace{workloads.NativeConstant(1000, 60*time.Second)}
		},
	},
	{
		name:   "dapp-backlog",
		chain:  "diem",
		config: configs.Consortium,
		traces: bench.GafamTraces,
	},
	{
		name:   "stream-mint",
		chain:  "quorum",
		config: configs.Devnet,
		traces: func() []*workloads.Trace { return nil },
		streams: []stream.Config{{
			Scenario: "flash-mint",
			Clients:  1_000_000,
			Peak:     5000,
			Decay:    40 * time.Second,
			Duration: 120 * time.Second,
		}},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// experiment is the bench.Run form of the same cell, the production path
// the composed cell must reproduce.
func (w workload) experiment(seed int64) bench.Experiment {
	return bench.Experiment{
		Chain:   w.chain,
		Config:  w.config,
		Traces:  w.traces(),
		Streams: w.streams,
		Seed:    seed,
		Tail:    w.tail,
	}
}
