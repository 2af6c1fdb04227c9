// Command dolbie-cluster runs a live DOLBIE deployment: real concurrent
// nodes exchanging protocol messages, in either the master-worker
// architecture (Algorithm 1) or the fully-distributed architecture
// (Algorithm 2), over an in-memory network or real TCP sockets on
// localhost. Each worker's cost feedback comes from a seeded synthetic
// load source, and the run reports the decision trajectory and measured
// protocol traffic (reproducing the Section IV-C complexity analysis).
//
// With -metrics-addr the deployment is instrumented end to end: a
// metrics server exposes the dolbie_core_*, dolbie_cluster_*, and
// dolbie_process_* families on /metrics (Prometheus text exposition),
// a liveness probe on /healthz, and the runtime profiler under
// /debug/pprof.
//
// Examples:
//
//	dolbie-cluster -mode mw -n 8 -rounds 30
//	dolbie-cluster -mode fd -n 5 -rounds 20 -tcp
//	dolbie-cluster -mode mw -n 8 -rounds 30 -tcp -codec json
//	dolbie-cluster -mode mw -n 8 -rounds 200 -metrics-addr :9090
//	dolbie-cluster -mode rfd -n 4 -rounds 30 -crash-worker 1 -crash-round 10
//	dolbie-cluster -mode rfd -n 4 -rounds 30 -chaos-partition 0:1:5:7 -chaos-delay 10ms
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"dolbie/internal/cluster"
	"dolbie/internal/core"
	"dolbie/internal/costfn"
	"dolbie/internal/metrics"
	"dolbie/internal/simplex"
	"dolbie/internal/wire"
)

// testHookScrape, when non-nil, is called with the metrics server's
// bound address after the deployment completes and before the server
// shuts down — the integration test uses it to scrape /metrics from a
// finished run.
var testHookScrape func(addr string)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dolbie-cluster:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dolbie-cluster", flag.ContinueOnError)
	var (
		mode         = fs.String("mode", "mw", "architecture: mw (master-worker), fd (fully-distributed), resilient (fail-stop tolerant master), or rfd (fail-stop tolerant fully-distributed)")
		n            = fs.Int("n", 8, "number of workers")
		rounds       = fs.Int("rounds", 30, "online rounds to run")
		useTCP       = fs.Bool("tcp", false, "use real TCP sockets on localhost instead of the in-memory network")
		seed         = fs.Int64("seed", 1, "seed for the synthetic load sources and the chaos layer")
		alpha        = fs.Float64("alpha", 0.05, "DOLBIE initial step size")
		timeout      = fs.Duration("timeout", time.Minute, "deployment deadline")
		crashRound   = fs.Int("crash-round", 0, "resilient/rfd modes: round at which -crash-worker fails (0 = no crash)")
		crashID      = fs.Int("crash-worker", 0, "resilient/rfd modes: worker/peer that fail-stops at -crash-round")
		dropProb     = fs.Float64("drop", 0, "in-memory network message drop probability; >0 wraps every node in the reliable delivery layer")
		roundTimeout = fs.Duration("round-timeout", 500*time.Millisecond, "resilient/rfd modes: per-round collection deadline before silent nodes are declared crashed")
		chaosDelay   = fs.Duration("chaos-delay", 0, "rfd mode: per-delivery latency injected by the chaos layer")
		partition    = fs.String("chaos-partition", "", "rfd mode: asymmetric partition as from:to:firstRound:lastRound (e.g. 0:1:5:7)")
		metricsAddr  = fs.String("metrics-addr", "", "serve /metrics, /healthz, and /debug/pprof on this address (empty disables)")
		codecName    = fs.String("codec", wire.Default.Name(), "wire codec for protocol frames: "+strings.Join(wire.Names(), " or "))
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 2 {
		return fmt.Errorf("need at least 2 workers, got %d", *n)
	}
	if *rounds < 1 {
		return fmt.Errorf("need at least 1 round, got %d", *rounds)
	}
	codec, err := wire.ByName(*codecName)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	var reg *metrics.Registry
	if *metricsAddr != "" {
		reg = metrics.NewRegistry()
		metrics.RegisterProcessGauges(reg)
		srv, err := metrics.StartServer(*metricsAddr, reg)
		if err != nil {
			return fmt.Errorf("metrics server: %w", err)
		}
		fmt.Fprintf(out, "metrics: http://%s/metrics\n", srv.Addr())
		defer func() {
			if testHookScrape != nil {
				testHookScrape(srv.Addr())
			}
			shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer shutCancel()
			if err := srv.Shutdown(shutCtx); err != nil {
				fmt.Fprintln(os.Stderr, "dolbie-cluster: metrics shutdown:", err)
			}
		}()
	}

	sources := make([]cluster.CostSource, *n)
	for i := range sources {
		src, err := cluster.NewSyntheticSource(i, *seed)
		if err != nil {
			return err
		}
		sources[i] = src
	}
	x0 := simplex.Uniform(*n)
	opts := []core.Option{core.WithInitialAlpha(*alpha)}
	if reg != nil {
		opts = append(opts, core.WithMetrics(reg))
	}

	if *dropProb > 0 && *useTCP {
		return fmt.Errorf("-drop applies to the in-memory network; omit -tcp")
	}
	switch *mode {
	case "mw":
		transports, cleanup, err := buildLossy(*n+1, *dropProb, *seed, *useTCP, codec, reg)
		if err != nil {
			return err
		}
		defer cleanup()
		start := time.Now()
		masterRes, workerRes, err := cluster.MasterWorkerDeployment(ctx, transports, x0, *rounds, sources, opts...)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		fmt.Fprintf(out, "master-worker deployment: %d workers, %d rounds, %v (%s transport, %s codec)\n",
			*n, masterRes.Rounds, elapsed.Round(time.Millisecond), transportName(*useTCP), codec.Name())
		fmt.Fprintf(out, "final step size alpha_T = %.6f\n", masterRes.FinalAlpha)
		fmt.Fprintf(out, "master traffic: sent %d msgs / %d B, received %d msgs / %d B\n",
			masterRes.Traffic.MsgsSent, masterRes.Traffic.BytesSent,
			masterRes.Traffic.MsgsReceived, masterRes.Traffic.BytesRecv)
		printTrajectory(out, workersPlayed(workerRes), workersCosts(workerRes))
	case "fd":
		transports, cleanup, err := buildLossy(*n, *dropProb, *seed, *useTCP, codec, reg)
		if err != nil {
			return err
		}
		defer cleanup()
		start := time.Now()
		res, err := cluster.FullyDistributedDeployment(ctx, transports, x0, *rounds, sources, opts...)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		var msgs, bytes int
		played := make([][]float64, *n)
		costs := make([][]float64, *n)
		for i, pr := range res {
			msgs += pr.Traffic.MsgsSent
			bytes += pr.Traffic.BytesSent
			played[i] = pr.Played
			costs[i] = pr.Costs
		}
		fmt.Fprintf(out, "fully-distributed deployment: %d peers, %d rounds, %v (%s transport, %s codec)\n",
			*n, *rounds, elapsed.Round(time.Millisecond), transportName(*useTCP), codec.Name())
		fmt.Fprintf(out, "total traffic: %d msgs / %d B (%.1f msgs/round, O(N^2) by design)\n",
			msgs, bytes, float64(msgs)/float64(*rounds))
		printTrajectory(out, played, costs)
	case "resilient":
		return runResilient(ctx, out, *n, *rounds, *crashID, *crashRound, *roundTimeout, sources, x0, codec, opts)
	case "rfd":
		return runResilientFD(ctx, out, resilientFDConfig{
			n: *n, rounds: *rounds, seed: *seed,
			crashID: *crashID, crashRound: *crashRound,
			roundTimeout: *roundTimeout, chaosDelay: *chaosDelay, partition: *partition,
		}, sources, x0, codec, reg, opts)
	default:
		return fmt.Errorf("unknown mode %q (want mw, fd, resilient, or rfd)", *mode)
	}
	return nil
}

// crashingSource wraps a cost source so the worker fail-stops at a round.
type crashingSource struct {
	inner   cluster.CostSource
	crashAt int
}

func (c crashingSource) Observe(round int, x float64) (float64, costfn.Func, error) {
	if c.crashAt > 0 && round >= c.crashAt {
		return 0, nil, fmt.Errorf("worker fail-stopped at round %d", round)
	}
	return c.inner.Observe(round, x)
}

// runResilient demonstrates the fail-stop extension: the resilient master
// detects the crashed worker via the round deadline, removes it, folds
// its workload back into the balancing loop, and finishes the run with
// the survivors.
func runResilient(ctx context.Context, out io.Writer, n, rounds, crashID, crashRound int, roundTimeout time.Duration, sources []cluster.CostSource, x0 []float64, codec wire.Codec, opts []core.Option) error {
	net := cluster.NewMemNet(cluster.WithCodec(codec))
	transports := make([]cluster.Transport, n+1)
	for i := range transports {
		transports[i] = net.Node(i)
	}
	if crashRound > 0 {
		if crashID < 0 || crashID >= n {
			return fmt.Errorf("crash-worker %d out of range [0, %d)", crashID, n)
		}
		sources[crashID] = crashingSource{inner: sources[crashID], crashAt: crashRound}
	}

	var wg sync.WaitGroup
	workerErrs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, workerErrs[i] = cluster.RunWorker(ctx, transports[i], i, n, x0[i], rounds, sources[i], opts...)
		}(i)
	}
	start := time.Now()
	res, err := cluster.RunResilientMaster(ctx, transports[n], x0, rounds, cluster.ResilientConfig{RoundTimeout: roundTimeout}, opts...)
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	wg.Wait()

	fmt.Fprintf(out, "resilient master-worker deployment: %d workers, %d rounds, %v\n", n, res.Rounds, elapsed.Round(time.Millisecond))
	if len(res.Crashed) > 0 {
		fmt.Fprintf(out, "crashed workers (detected and removed): %v\n", res.Crashed)
	} else {
		fmt.Fprintln(out, "no crashes detected")
	}
	fmt.Fprintf(out, "survivors: %v\n", res.Survivors)
	fmt.Fprintf(out, "final step size alpha_T = %.6f\n", res.FinalAlpha)
	for i, werr := range workerErrs {
		if werr != nil {
			fmt.Fprintf(out, "worker %d exited: %v\n", i, werr)
		}
	}
	return nil
}

// resilientFDConfig gathers the rfd-mode knobs.
type resilientFDConfig struct {
	n, rounds    int
	seed         int64
	crashID      int
	crashRound   int
	roundTimeout time.Duration
	chaosDelay   time.Duration
	partition    string
}

// parsePartition decodes "from:to:firstRound:lastRound".
func parsePartition(spec string, n int) (cluster.ChaosPartition, error) {
	var p cluster.ChaosPartition
	if _, err := fmt.Sscanf(spec, "%d:%d:%d:%d", &p.From, &p.To, &p.FromRound, &p.ToRound); err != nil {
		return p, fmt.Errorf("bad -chaos-partition %q (want from:to:firstRound:lastRound): %w", spec, err)
	}
	if p.From < 0 || p.From >= n || p.To < 0 || p.To >= n || p.From == p.To {
		return p, fmt.Errorf("bad -chaos-partition %q: nodes must be distinct ids in [0, %d)", spec, n)
	}
	if p.FromRound < 1 || p.ToRound < p.FromRound {
		return p, fmt.Errorf("bad -chaos-partition %q: need 1 <= firstRound <= lastRound", spec)
	}
	return p, nil
}

// runResilientFD demonstrates the fully-distributed fail-stop extension:
// every peer imposes the collection deadline on its neighbours, evicts
// silent ones, announces the eviction to the whole deployment, and the
// survivors renormalize the workload simplex. Faults come from the
// deterministic chaos layer: a scheduled peer crash, an asymmetric link
// partition, or both.
func runResilientFD(ctx context.Context, out io.Writer, cfg resilientFDConfig, sources []cluster.CostSource, x0 []float64, codec wire.Codec, reg *metrics.Registry, opts []core.Option) error {
	chaosCfg := cluster.ChaosConfig{Seed: cfg.seed, Delay: cfg.chaosDelay, Metrics: reg}
	if cfg.crashRound > 0 {
		if cfg.crashID < 0 || cfg.crashID >= cfg.n {
			return fmt.Errorf("crash-worker %d out of range [0, %d)", cfg.crashID, cfg.n)
		}
		chaosCfg.Crashes = []cluster.ChaosCrash{{Node: cfg.crashID, Round: cfg.crashRound}}
	}
	if cfg.partition != "" {
		p, err := parsePartition(cfg.partition, cfg.n)
		if err != nil {
			return err
		}
		chaosCfg.Partitions = []cluster.ChaosPartition{p}
	}
	chaos := cluster.NewChaos(chaosCfg)
	net := cluster.NewMemNet(cluster.WithCodec(codec))
	transports := make([]cluster.Transport, cfg.n)
	for i := range transports {
		transports[i] = chaos.Wrap(i, net.Node(i))
	}
	defer func() {
		for _, tr := range transports {
			tr.Close() //nolint:errcheck // best-effort teardown
		}
	}()

	// Under an asymmetric partition the genuine detector is the cut
	// link's destination — it is the only peer actually missing frames;
	// everyone else merely stalls behind it one round later. Symmetric
	// deadlines then race (every peer's timer was reset by the same last
	// broadcast) and the wrong peer can win detection, splitting the
	// deployment. Staggering settles the race: the destination keeps the
	// configured deadline, the rest get a generous multiple, so its
	// eviction notice lands before any other timer fires. Longer
	// deadlines on the non-detectors cost nothing in healthy rounds.
	timeoutFor := func(i int) time.Duration { return cfg.roundTimeout }
	if len(chaosCfg.Partitions) > 0 {
		detector := chaosCfg.Partitions[0].To
		timeoutFor = func(i int) time.Duration {
			if i == detector {
				return cfg.roundTimeout
			}
			return 3 * cfg.roundTimeout
		}
	}

	start := time.Now()
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
		res  = make([]cluster.ResilientPeerResult, cfg.n)
	)
	for i := 0; i < cfg.n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rc := cluster.ResilientPeerConfig{RoundTimeout: timeoutFor(i), Metrics: reg}
			r, err := cluster.RunResilientPeer(ctx, transports[i], i, x0, cfg.rounds, sources[i], rc, opts...)
			mu.Lock()
			res[i] = r
			if err != nil {
				errs = append(errs, fmt.Errorf("peer %d: %w", i, err))
			}
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if len(errs) > 0 {
		return errors.Join(errs...)
	}

	fmt.Fprintf(out, "resilient fully-distributed deployment: %d peers, %d rounds, %v (%s codec)\n",
		cfg.n, cfg.rounds, elapsed.Round(time.Millisecond), codec.Name())
	stats := chaos.Stats()
	fmt.Fprintf(out, "chaos faults injected: %d crashes, %d partition drops\n", stats.Crashes, stats.PartitionDrops)
	evicted := map[int]bool{}
	for _, pr := range res {
		switch {
		case pr.Crashed:
			fmt.Fprintf(out, "peer %d crashed after %d rounds\n", pr.ID, pr.Rounds)
		case pr.SelfEvicted:
			fmt.Fprintf(out, "peer %d was declared crashed by its peers and stopped after %d rounds\n", pr.ID, pr.Rounds)
		}
		for _, v := range pr.Evicted {
			if !evicted[v] {
				evicted[v] = true
				fmt.Fprintf(out, "peer %d evicted in round %d (first detected by peer %d)\n", v, pr.EvictionRound[v], pr.ID)
			}
		}
	}
	if len(evicted) == 0 {
		fmt.Fprintln(out, "no evictions")
	}
	played := make([][]float64, 0, len(res))
	costs := make([][]float64, 0, len(res))
	survivors := make([]int, 0, len(res))
	for _, pr := range res {
		if pr.Rounds == cfg.rounds {
			played = append(played, pr.Played)
			costs = append(costs, pr.Costs)
			survivors = append(survivors, pr.ID)
		}
	}
	fmt.Fprintf(out, "survivors: %v (trajectory rows in this order)\n", survivors)
	printTrajectory(out, played, costs)
	return nil
}

func transportName(tcp bool) string {
	if tcp {
		return "tcp"
	}
	return "memnet"
}

// buildLossy returns in-memory transports, optionally over a dropping
// network with the reliability layer; dropProb = 0 defers to
// buildTransports for the -tcp choice. A non-nil registry instruments
// the reliability layer's retransmission/duplicate counters.
func buildLossy(count int, dropProb float64, seed int64, useTCP bool, codec wire.Codec, reg *metrics.Registry) ([]cluster.Transport, func(), error) {
	if dropProb <= 0 {
		return buildTransports(count, useTCP, codec)
	}
	net := cluster.NewMemNet(cluster.WithDropProb(dropProb, seed), cluster.WithCodec(codec))
	transports := make([]cluster.Transport, count)
	reliables := make([]*cluster.Reliable, count)
	for i := range transports {
		reliables[i] = cluster.NewReliableWithMetrics(i, net.Node(i), 10*time.Millisecond, reg)
		transports[i] = reliables[i]
	}
	cleanup := func() {
		for _, r := range reliables {
			r.Close() //nolint:errcheck // best-effort teardown
		}
	}
	return transports, cleanup, nil
}

func buildTransports(count int, useTCP bool, codec wire.Codec) ([]cluster.Transport, func(), error) {
	if !useTCP {
		net := cluster.NewMemNet(cluster.WithCodec(codec))
		transports := make([]cluster.Transport, count)
		for i := range transports {
			transports[i] = net.Node(i)
		}
		return transports, func() {}, nil
	}
	nodes := make([]*cluster.TCPNode, count)
	registry := make(map[int]string, count)
	for i := 0; i < count; i++ {
		node, err := cluster.ListenTCP(i, "127.0.0.1:0", cluster.WithTCPCodec(codec))
		if err != nil {
			for _, n := range nodes[:i] {
				n.Close() //nolint:errcheck // best-effort unwind
			}
			return nil, nil, err
		}
		nodes[i] = node
		registry[i] = node.Addr()
	}
	transports := make([]cluster.Transport, count)
	for i, node := range nodes {
		node.SetRegistry(registry)
		transports[i] = node
	}
	cleanup := func() {
		for _, node := range nodes {
			node.Close() //nolint:errcheck // best-effort teardown
		}
	}
	return transports, cleanup, nil
}

func workersPlayed(res []cluster.WorkerResult) [][]float64 {
	out := make([][]float64, len(res))
	for i, wr := range res {
		out[i] = wr.Played
	}
	return out
}

func workersCosts(res []cluster.WorkerResult) [][]float64 {
	out := make([][]float64, len(res))
	for i, wr := range res {
		out[i] = wr.Costs
	}
	return out
}

// printTrajectory summarizes how the deployment balanced load: the global
// cost of the first and last rounds, and each worker's first/last share.
func printTrajectory(out io.Writer, played, costs [][]float64) {
	if len(played) == 0 || len(played[0]) == 0 {
		return
	}
	rounds := len(played[0])
	first, last := 0.0, 0.0
	for i := range costs {
		if costs[i][0] > first {
			first = costs[i][0]
		}
		if costs[i][rounds-1] > last {
			last = costs[i][rounds-1]
		}
	}
	fmt.Fprintf(out, "global cost: round 1 = %.4f, round %d = %.4f (%.1f%% reduction)\n",
		first, rounds, last, 100*(first-last)/first)
	fmt.Fprintln(out, "worker  first-share  last-share")
	for i := range played {
		fmt.Fprintf(out, "%6d  %11.4f  %10.4f\n", i, played[i][0], played[i][rounds-1])
	}
}
