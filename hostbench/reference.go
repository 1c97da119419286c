package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"

	"diablo/internal/bench"
	"diablo/internal/types"
)

// referenceJSON holds the simulated-output digest of every workload for
// seeds 0..N-1. Regenerate it with --references N after a change that is
// meant to alter what is simulated.
//
//go:embed reference.json
var referenceJSON []byte

// checker decides whether a cell simulated what it should have. A seed
// with a stored reference must reproduce it exactly; any other seed is
// checked against bench.Run once, and its first cell then becomes the
// reference for the rest of the run.
type checker struct {
	ref     string
	partial string // bench.Run's digest, with no state root
}

func newChecker(w workload, seed int64) (*checker, error) {
	var table map[string]map[string]string
	if err := json.Unmarshal(referenceJSON, &table); err != nil {
		return nil, fmt.Errorf("reading reference.json: %w", err)
	}
	if ref, ok := table[w.name][strconv.FormatInt(seed, 10)]; ok {
		return &checker{ref: ref}, nil
	}
	partial, err := benchDigest(w, seed)
	if err != nil {
		return nil, err
	}
	return &checker{partial: partial}, nil
}

// benchDigest runs w through bench.Run, the production path. bench.Run
// exposes no executor, so its digest carries a zero state root.
func benchDigest(w workload, seed int64) (string, error) {
	out, err := bench.Run(w.experiment(seed))
	if err != nil {
		return "", err
	}
	return digest(out.Result, out.Blocks, types.ZeroHash), nil
}

// verify checks c's simulated output.
func (ch *checker) verify(c *cell) error {
	if ch.ref == "" {
		if got := digest(c.result, c.net.Height(), types.ZeroHash); got != ch.partial {
			return fmt.Errorf("output differs from bench.Run's (digest %s, want %s)", got, ch.partial)
		}
		ch.ref = c.digest()
		return nil
	}
	if got := c.digest(); got != ch.ref {
		return fmt.Errorf("output digest %s, reference %s", got, ch.ref)
	}
	return nil
}

// writeReferences records the digest of every workload for seeds
// 0..n-1. The composed cells it runs are the ones the composition test
// holds to bench.Run's output.
func writeReferences(out io.Writer, n int) error {
	table := map[string]map[string]string{}
	for _, w := range allWorkloads {
		table[w.name] = map[string]string{}
		for seed := int64(0); seed < int64(n); seed++ {
			runtime.GC()
			c, err := runCell(w, seed, nil, false)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			table[w.name][strconv.FormatInt(seed, 10)] = c.digest()
			fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", w.name, seed, c.digest())
		}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(table)
}
