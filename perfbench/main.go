// Command perfbench is the repository's benchmark: it drives the DOLBIE
// data plane (HTTP ingest, admission) and control plane (Algorithm 1 and
// Algorithm 2 rounds) through their public functions, checks the
// program's outputs, and prints every metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload ingest --seed 1 --seconds 5 --trace 0
//	bash perfbench/run.sh --list
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run records spans around each layer's calls and reports the per-layer
// metrics instead (see README.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"time"
)

// metricDef describes one reported metric.
type metricDef struct {
	name, unit, better string
	// moves names the end-to-end metric a per-layer metric should move.
	moves string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with --trace 0.
var endToEnd = []metricDef{
	{name: "op_p50_us", unit: "us", better: "lower"},
	{name: "op_p90_us", unit: "us", better: "lower"},
	{name: "op_p99_us", unit: "us", better: "lower"},
	{name: "work_per_s", unit: "1/s", better: "higher"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
}

// perLayer are the per-layer metrics, reported by every workload with
// --trace 1. A layer that is not on a workload's path reports 0.
var perLayer = []metricDef{
	{"http.handler_us", "us", "lower", "ingest/op_p50_us"},
	{"http.transport_us", "us", "lower", "ingest/op_p50_us"},
	{"metrics.scrape_us", "us", "lower", "ingest/op_p99_us"},
	{"live.complete_lag_us", "us", "lower", "ingest/work_per_s"},
	{"dispatch.submit_ns", "ns", "lower", "admit/work_per_s, ingest/op_p50_us"},
	{"dispatch.batch_us", "us", "lower", "admit/work_per_s"},
	{"dispatch.complete_us", "us", "lower", "admit/work_per_s"},
	{"dispatch.retune_us", "us", "lower", "admit/op_p99_us"},
	{"dispatch.snapshot_us", "us", "lower", "admit/op_p99_us"},
	{"dispatch.affinity_hit_frac", "frac", "higher", "admit/work_per_s"},
	{"cluster.send_us", "us", "lower", "rounds-*/op_p50_us"},
	{"cluster.recv_wait_us", "us", "lower", "rounds-*/op_p50_us"},
	{"cluster.peer_self_ms", "ms", "lower", "rounds-tree/op_p50_us"},
	{"cluster.first_round_s", "s", "lower", "rounds-tree/setup_s, peak_rss_mb"},
	{"cluster.msgs_per_round", "count", "lower", "exact; moves only with the protocol"},
	{"cluster.bytes_per_round_per_worker", "B", "lower", "exact; moves only with the protocol"},
	{"master.collect_wait_us", "us", "lower", "rounds-master/op_p50_us"},
	{"master.self_us", "us", "lower", "rounds-master/op_p50_us"},
	{"trace.overhead_p50_pct", "%", "lower", "traced minus untraced op_p50_us, as % of untraced"},
}

// workload is one traffic mix. run measures it and returns its outcome.
type workload struct {
	name, why string
	run       func(env *runEnv) (*outcome, error)
}

var workloads = []workload{
	{"ingest", "closed-loop POST /ingest over loopback keep-alive connections: socket, handler, verdict encoding, Live wake/complete, scrapes", runIngest},
	{"admit", "dispatcher without a socket: SubmitBatch + single Submit + CompleteBatch cycles with periodic retune and snapshot", runAdmit},
	{"rounds-tree", "Algorithm 2 via ElasticDeployment, tree fanout 8, N=2048 over MemNet: per-peer roster and overlay cost at large N", runRoundsTree},
	{"rounds-master", "Algorithm 1 via MasterWorkerDeployment at the paper's N=30 over MemNet: message hand-offs and the master step", runRoundsMaster},
}

// runEnv is what a workload gets from the command line.
type runEnv struct {
	seed     int64
	seconds  time.Duration
	trace    bool
	buildDir string
	log      io.Writer
}

// outcome is a workload's measured result.
type outcome struct {
	attempted, failed int64
	// gates lists every correctness check that failed.
	gates []string
	// metrics holds the reported values by metric name.
	metrics map[string]float64
	// tracer holds the traced run's spans.
	tracer *Tracer
}

func (o *outcome) gate(ok bool, format string, args ...any) {
	if !ok {
		o.gates = append(o.gates, fmt.Sprintf(format, args...))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see --list)")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	list := fs.Bool("list", false, "print every workload and metric with its unit, then exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		printList(stdout)
		return nil
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q (see --list)", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	buildDir := os.Getenv("CARGO_TARGET_DIR")
	if buildDir == "" {
		buildDir = ".bench_build"
	}
	stamp, err := hostStamp()
	if err != nil {
		return err
	}
	stamp.Workload, stamp.Seed, stamp.Seconds, stamp.Trace = w.name, *seed, *seconds, *trace == 1
	line, err := json.Marshal(stamp)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "host %s\n", line)

	// The reference loop runs before the workload and after it, outside
	// every timed window.
	refBefore := refLoopMS(refReps)
	env := &runEnv{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, buildDir: buildDir, log: stdout}
	start, cpu0 := time.Now(), processCPU()
	out, err := w.run(env)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	wall, cpu := time.Since(start), processCPU()-cpu0
	fmt.Fprintf(stdout, "cpu %.3fs over %.3fs wall: %.2f of %d CPUs busy\n",
		cpu.Seconds(), wall.Seconds(), cpu.Seconds()/wall.Seconds(), stamp.NumCPU)
	refAfter := refLoopMS(refReps)
	fmt.Fprintf(stdout, "phase ref_loop_ms %.4f (median of %d before: %.4f, %d after: %.4f)\n",
		median(append(slices.Clone(refBefore), refAfter...)), refReps, median(refBefore), refReps, median(refAfter))
	defs := endToEnd
	if env.trace {
		defs = perLayer
		path := spanFile(buildDir, w.name, *seed)
		if err := out.tracer.WriteFile(path, stamp); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(stdout, "spans %d kept, %d dropped, written to %s\n",
			len(out.tracer.Spans()), out.tracer.dropped.Load(), path)
	}
	res := resultLine{
		Correct:   len(out.gates) == 0 && out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	fmt.Fprintf(stdout, "counts %s sent=%d succeeded=%d failed=%d\n", w.name, out.attempted, out.attempted-out.failed, out.failed)
	for _, g := range out.gates {
		fmt.Fprintf(stdout, "GATE FAILED %s\n", g)
	}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			return fmt.Errorf("%s did not report %s", w.name, d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		if d.moves != "" {
			fmt.Fprintf(stdout, "metric %-34s %14.6g %-5s -> %s\n", d.name, v, d.unit, d.moves)
		} else {
			fmt.Fprintf(stdout, "metric %-34s %14.6g %s\n", d.name, v, d.unit)
		}
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", last)
	return nil
}

func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-14s %s\n", wl.name, wl.why)
	}
	fmt.Fprintln(w, "end-to-end metrics (--trace 0):")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-34s %-6s %s is better\n", d.name, d.unit, d.better)
	}
	fmt.Fprintln(w, "per-layer metrics (--trace 1), with the end-to-end metric each should move:")
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-34s %-6s %-6s -> %s\n", d.name, d.unit, d.better, d.moves)
	}
}

// layerMetrics returns a per-layer metric map with every metric at 0,
// for a workload to fill in the layers on its path.
func layerMetrics() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// median returns the median of xs (0 when empty); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quantiler is an op-time distribution in nanoseconds: a Hist or the
// sub-window medians of Windows.
type quantiler interface{ Quantile(q float64) float64 }

// refReps is how many times the reference loop runs before and after
// the workload.
const refReps = 5

// subWindows is the number of sub-windows a data-plane run's timed
// window is split into.
const subWindows = 10

// opMetrics fills the end-to-end latency percentiles from an op
// distribution recorded in nanoseconds.
func opMetrics(m map[string]float64, h quantiler) {
	m["op_p50_us"] = h.Quantile(0.50) / 1e3
	m["op_p90_us"] = h.Quantile(0.90) / 1e3
	m["op_p99_us"] = h.Quantile(0.99) / 1e3
}

// overheadPct is the tracing overhead on the op median: traced minus
// untraced, as a percentage of untraced.
func overheadPct(untraced, traced quantiler) float64 {
	u := untraced.Quantile(0.5)
	if u == 0 {
		return 0
	}
	return (traced.Quantile(0.5) - u) / u * 100
}
