// Command benchdiff checks a `make bench-shard` export — a list of
// {"workers", "gomaxprocs", "wall_seconds", "events", "continuity",
// "locality"} objects, one per (partition, core-count) run of the paper-scale
// popular scenario.
//
// Usage:
//
//	benchdiff -shard BENCH_shard.json
//
// The file is checked for trajectory determinism: entries sharing a workers
// value must agree exactly on events, continuity and locality, because the
// engine's trajectory is worker-count invariant and only wall_seconds may
// vary. The multi-core speedup of each entry is printed alongside.
//
// Microbenchmark exports (`make bench-<suite>`) are not compared here:
// `bash perf/run.sh -compare` is the performance gate.
//
// Exit status: 0 when the trajectories agree, 1 otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
}

func run() error {
	shard := flag.Bool("shard", false, "check a make bench-shard export (the only mode)")
	flag.Parse()
	if !*shard || flag.NArg() != 1 {
		return fmt.Errorf("usage: benchdiff -shard BENCH_shard.json")
	}
	path := flag.Arg(0)
	entries, err := loadShard(path)
	if err != nil {
		return err
	}
	if !checkShardFile(path, entries) {
		return fmt.Errorf("shard trajectory diverges across worker counts")
	}
	return nil
}

// shardEntry is one run of `make bench-shard`: a (partition, core-count)
// pair with its wall clock and the trajectory metrics that pin determinism.
type shardEntry struct {
	Workers     int     `json:"workers"`
	Gomaxprocs  int     `json:"gomaxprocs"`
	WallSeconds float64 `json:"wall_seconds"`
	Events      uint64  `json:"events"`
	Continuity  float64 `json:"continuity"`
	Locality    float64 `json:"locality"`
}

// key names one run: a partition on a core count.
func (e shardEntry) key() string {
	return fmt.Sprintf("workers=%d gomaxprocs=%d", e.Workers, e.Gomaxprocs)
}

func loadShard(path string) ([]shardEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var entries []shardEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("%s: no shard-bench entries", path)
	}
	seen := make(map[string]bool, len(entries))
	for _, e := range entries {
		if e.Workers < 1 || e.Gomaxprocs < 1 || e.WallSeconds <= 0 {
			return nil, fmt.Errorf("%s: entry %+v missing workers, gomaxprocs or wall_seconds", path, e)
		}
		if seen[e.key()] {
			return nil, fmt.Errorf("%s: duplicate entry for %s", path, e.key())
		}
		seen[e.key()] = true
	}
	return entries, nil
}

// checkShardFile verifies worker-count invariance within one export: every
// entry sharing a workers value must report bit-identical events, continuity
// and locality — core count may change the wall clock, never the trajectory.
// It also prints the speedup of each entry over the slowest run of the same
// partition, which is the number the multi-core acceptance gate reads.
func checkShardFile(path string, entries []shardEntry) bool {
	fmt.Printf("== %s (determinism + speedup) ==\n", path)
	ok := true
	ref := make(map[int]shardEntry)
	slowest := make(map[int]float64)
	for _, e := range entries {
		if r, found := ref[e.Workers]; found {
			if e.Events != r.Events || e.Continuity != r.Continuity || e.Locality != r.Locality {
				fmt.Printf("  %-30s DETERMINISM FAIL: events/continuity/locality differ from %s\n", e.key(), r.key())
				ok = false
			}
		} else {
			ref[e.Workers] = e
		}
		if e.WallSeconds > slowest[e.Workers] {
			slowest[e.Workers] = e.WallSeconds
		}
	}
	for _, e := range entries {
		fmt.Printf("  %-30s wall %7.1fs  speedup %.2fx  (events %d, continuity %.4f, locality %.4f)\n",
			e.key(), e.WallSeconds, slowest[e.Workers]/e.WallSeconds, e.Events, e.Continuity, e.Locality)
	}
	return ok
}
