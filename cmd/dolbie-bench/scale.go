package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"dolbie/internal/cluster"
	"dolbie/internal/costfn"
	"dolbie/internal/optimum"
	"dolbie/internal/simplex"
)

// This file implements the -scale benchmark mode: it sweeps deployment
// sizes N ∈ {8, 64, 512, 4096} over the in-memory network under both
// per-round communication patterns of the elastic runtime — the paper's
// flat all-to-all exchange (O(N^2) messages per round, swept up to 512)
// and the hierarchical tree aggregation overlay (~3N messages per
// round, swept to 4096) — and reports throughput, set-up time,
// steady-state time per round, heap in use, per-worker traffic,
// aggregation depth, and the final min-max gap against the offline
// optimum. The headline
// measurement is the traffic column: bytes per round per worker stays
// O(1) under the tree overlay while growing O(N) flat, which is what
// lets one deployment scale from the paper's 8 workers to thousands.

const (
	scaleRounds = 12
	scaleFanout = 8
)

// scaleNs is the sweep; flat runs are capped at scaleFlatMax because
// the all-to-all pattern moves N^2 messages per round.
var scaleNs = []int{8, 64, 512, 4096}

const scaleFlatMax = 512

// scaleRunStats is one (topology, N) cell of the sweep.
type scaleRunStats struct {
	// Topology is "flat" or "tree".
	Topology string `json:"topology"`
	// N is the deployment size.
	N int `json:"n"`
	// Fanout is the aggregation tree fanout (0 for flat runs).
	Fanout int `json:"fanout,omitempty"`
	// AggDepth is the aggregation tree depth (0 for flat runs).
	AggDepth int `json:"agg_depth"`
	// MsgsPerRound is the deployment-wide protocol message count per
	// round (deterministic for a fault-free run).
	MsgsPerRound float64 `json:"msgs_per_round"`
	// BytesPerRoundPerWorker is each worker's mean protocol traffic per
	// round (sent bytes; deterministic for a fault-free run).
	BytesPerRoundPerWorker float64 `json:"bytes_per_round_per_worker"`
	// RoundsPerSec is wall-clock throughput of the whole deployment
	// (timing-dependent; recorded for orientation, not reproduction).
	RoundsPerSec float64 `json:"rounds_per_sec"`
	// SetupS is the wall-clock time from building the network to the
	// first consensus reaching peer 0 (the start of its round 2).
	SetupS float64 `json:"setup_s"`
	// RoundMs is peer 0's steady-state wall-clock time per round, from
	// the start of round 2 to the start of the last round.
	RoundMs float64 `json:"round_ms"`
	// HeapMB is the Go heap in use, in MB, when peer 0 starts the last
	// round: the whole deployment's live state in one process
	// (timing-dependent, like the wall-clock columns).
	HeapMB float64 `json:"heap_mb"`
	// FinalMaxCost is the realized min-max objective in the last round.
	FinalMaxCost float64 `json:"final_max_cost"`
	// OptimalMaxCost is the offline instantaneous optimum for the same
	// cost functions.
	OptimalMaxCost float64 `json:"optimal_max_cost"`
	// FinalGapPct is the relative gap of the last round's objective to
	// the offline optimum.
	FinalGapPct float64 `json:"final_gap_pct"`
}

// scaleReport is the BENCH_scale.json document.
type scaleReport struct {
	Rounds int             `json:"rounds"`
	Runs   []scaleRunStats `json:"runs"`
}

// scaleFuncs builds the deterministic heterogeneous cost functions for
// an N-worker deployment: sixteen recurring affine latency profiles, so
// the offline optimum and the consensus dynamics stay non-trivial at
// every N.
func scaleFuncs(n int) []costfn.Func {
	funcs := make([]costfn.Func, n)
	for i := range funcs {
		funcs[i] = costfn.Affine{
			Slope:     float64(i%16 + 1),
			Intercept: 0.05 * float64(i%16),
		}
	}
	return funcs
}

func scaleSources(funcs []costfn.Func) []cluster.CostSource {
	sources := make([]cluster.CostSource, len(funcs))
	for i := range sources {
		f := funcs[i]
		sources[i] = cluster.FuncSource(func(round int, x float64) (float64, costfn.Func, error) {
			return f.Eval(x), f, nil
		})
	}
	return sources
}

// runScaleBench measures every sweep cell and writes the report.
func runScaleBench(outPath string, out io.Writer) error {
	fmt.Fprintf(out, "scale bench: N in %v, %d rounds, tree fanout %d (flat capped at %d)\n",
		scaleNs, scaleRounds, scaleFanout, scaleFlatMax)
	rep := scaleReport{Rounds: scaleRounds}
	for _, topo := range []cluster.Topology{cluster.TopologyFlat, cluster.TopologyTree} {
		for _, n := range scaleNs {
			if topo == cluster.TopologyFlat && n > scaleFlatMax {
				continue
			}
			stats, err := scaleRun(topo, n)
			if err != nil {
				return fmt.Errorf("%s N=%d: %w", topo, n, err)
			}
			rep.Runs = append(rep.Runs, stats)
			fmt.Fprintf(out, "  %-4s N=%-5d depth %d  %10.0f msgs/round  %8.1f B/round/worker  %7.1f rounds/s  setup %6.3fs  %8.2f ms/round  heap %7.1f MB  gap %+.2f%%\n",
				stats.Topology, n, stats.AggDepth, stats.MsgsPerRound,
				stats.BytesPerRoundPerWorker, stats.RoundsPerSec, stats.SetupS, stats.RoundMs, stats.HeapMB, stats.FinalGapPct)
		}
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", outPath)
	return nil
}

// scaleRun executes one fault-free elastic deployment of size n and
// derives the cell's measurements.
func scaleRun(topo cluster.Topology, n int) (scaleRunStats, error) {
	// Collect the previous cell's garbage first, so heap_mb holds this
	// deployment alone.
	runtime.GC()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	build := time.Now()
	// Flat peers send to every other peer in a loop before receiving,
	// so an inbox smaller than the N-1 shares of the rounds in flight can
	// deadlock the exchange: flat cells get a capacity of 4N messages.
	// Inboxes allocate on demand, so that capacity costs memory only for
	// the messages actually queued. Tree peers receive O(fanout) messages
	// per round, so the default capacity suffices.
	var opts []cluster.MemNetOption
	if topo == cluster.TopologyFlat {
		opts = append(opts, cluster.WithInboxBuffer(4*n))
	}
	net := cluster.NewMemNet(opts...)
	transports := make([]cluster.Transport, n)
	for i := range transports {
		transports[i] = net.Node(i)
	}
	defer closeTransports(transports)
	funcs := scaleFuncs(n)
	sources := scaleSources(funcs)
	// Peer 0's round starts: starts[r] is when its round r+1 began.
	starts := make([]time.Time, 0, scaleRounds)
	var heap uint64
	src0 := sources[0]
	sources[0] = cluster.FuncSource(func(round int, x float64) (float64, costfn.Func, error) {
		starts = append(starts, time.Now())
		if round == scaleRounds {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			heap = ms.HeapInuse
		}
		return src0.Observe(round, x)
	})
	dc := cluster.ElasticDeploymentConfig{
		X0:      simplex.Uniform(n),
		Rounds:  scaleRounds,
		Sources: sources,
		Peer: cluster.ElasticPeerConfig{
			RoundTimeout: 2 * time.Minute,
			Topology:     topo,
			Fanout:       scaleFanout,
		},
	}
	start := time.Now()
	res, err := cluster.ElasticDeployment(ctx, transports, dc)
	if err != nil {
		return scaleRunStats{}, err
	}
	elapsed := time.Since(start)

	stats := scaleRunStats{Topology: topo.String(), N: n}
	if topo == cluster.TopologyTree {
		stats.Fanout = scaleFanout
		stats.AggDepth = res[0].AggDepth
	}
	var msgs, bytes int
	finalMax := 0.0
	for _, r := range res {
		if r.Rounds != scaleRounds {
			return stats, fmt.Errorf("peer %d completed %d rounds, want %d", r.ID, r.Rounds, scaleRounds)
		}
		msgs += r.Traffic.MsgsSent
		bytes += r.Traffic.BytesSent
		if c := r.Costs[scaleRounds-1]; c > finalMax {
			finalMax = c
		}
	}
	stats.MsgsPerRound = float64(msgs) / scaleRounds
	stats.BytesPerRoundPerWorker = float64(bytes) / scaleRounds / float64(n)
	stats.RoundsPerSec = scaleRounds / elapsed.Seconds()
	stats.SetupS = starts[1].Sub(build).Seconds()
	stats.RoundMs = float64(starts[scaleRounds-1].Sub(starts[1])) / float64(time.Millisecond) / (scaleRounds - 2)
	stats.HeapMB = float64(heap) / (1 << 20)
	stats.FinalMaxCost = finalMax
	opt, err := optimum.Solve(funcs, 0)
	if err != nil {
		return stats, fmt.Errorf("offline optimum: %w", err)
	}
	stats.OptimalMaxCost = opt.Value
	stats.FinalGapPct = (finalMax - opt.Value) / opt.Value * 100
	return stats, nil
}
