package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"time"

	"dolbie/internal/cluster"
	"dolbie/internal/costfn"
	"dolbie/internal/optimum"
	"dolbie/internal/simplex"
)

// roundsSpec is one control-plane workload. A run repeats identical
// seeded deployments of a fixed length until the measured time is spent
// (at least minDeployments of them), so every deployment yields one
// set-up sample and the same seed must give bit-identical final costs
// in each.
type roundsSpec struct {
	name string
	// n is the number of peers (tree) or workers (master).
	n int
	// rounds is each deployment's length.
	rounds int
	// warm is the number of rounds before the timed window: set-up runs
	// from building the deployment to the consensus that ends round warm.
	warm int
	// sample is the 1-in-K round sampling of the traced run's spans.
	sample int
	// msgsPerRound is the protocol's exact message count per round.
	msgsPerRound int
	// maxGapLeft bounds the share of round 1's gap to the optimum that
	// may be left at the last round. A deployment stuck at its uniform
	// start leaves 1; the bound sits above every share recorded in
	// steadiness.json (gap_left).
	maxGapLeft float64
	// deploy runs one deployment over the transports.
	deploy func(ctx context.Context, tr []cluster.Transport, src []cluster.CostSource, rounds int) (deployment, error)
	// nodes is the number of transports a deployment needs.
	nodes int
	// master, when >= 0, is the transport index of the Algorithm 1
	// master, traced on its own.
	master int
}

// minDeployments is the least number of deployments (and so set-up
// samples) per run.
const minDeployments = 3

// deployment is one finished deployment, reduced to what the gates
// and metrics need.
type deployment struct {
	// rounds and finals hold each peer's (worker's) completed rounds and
	// final-round cost.
	rounds []int
	finals []float64
	// faults counts evicted, self-evicted or crashed peers.
	faults int
	// msgs and bytes are the deployment's total sent traffic.
	msgs, bytes int
}

func runRoundsTree(env *runEnv) (*outcome, error) {
	const n = 2048
	return runRounds(env, roundsSpec{
		name:         "rounds-tree",
		n:            n,
		rounds:       40,
		warm:         1,
		sample:       1,
		msgsPerRound: 3 * (n - 1),
		maxGapLeft:   0.8,
		nodes:        n,
		master:       -1,
		deploy: func(ctx context.Context, tr []cluster.Transport, src []cluster.CostSource, rounds int) (deployment, error) {
			res, err := cluster.ElasticDeployment(ctx, tr, cluster.ElasticDeploymentConfig{
				X0:      simplex.Uniform(n),
				Rounds:  rounds,
				Sources: src,
				Peer: cluster.ElasticPeerConfig{
					// Far above any round time: a slow host must never
					// evict a live peer.
					RoundTimeout: 5 * time.Minute,
					Topology:     cluster.TopologyTree,
					Fanout:       8,
				},
			})
			if err != nil {
				return deployment{}, err
			}
			var d deployment
			for _, r := range res {
				d.rounds = append(d.rounds, r.Rounds)
				d.finals = append(d.finals, lastCost(r.Costs))
				if len(r.Evicted) > 0 || len(r.Admitted) > 0 || r.SelfEvicted || r.Crashed {
					d.faults++
				}
				d.msgs += r.Traffic.MsgsSent
				d.bytes += r.Traffic.BytesSent
			}
			return d, nil
		},
	})
}

func runRoundsMaster(env *runEnv) (*outcome, error) {
	const n = 30
	return runRounds(env, roundsSpec{
		name:         "rounds-master",
		n:            n,
		rounds:       22000,
		warm:         2000,
		sample:       16,
		msgsPerRound: 3 * n,
		maxGapLeft:   0.1,
		nodes:        n + 1,
		master:       cluster.MasterID(n),
		deploy: func(ctx context.Context, tr []cluster.Transport, src []cluster.CostSource, rounds int) (deployment, error) {
			m, ws, err := cluster.MasterWorkerDeployment(ctx, tr, simplex.Uniform(n), rounds, src)
			if err != nil {
				return deployment{}, err
			}
			d := deployment{msgs: m.Traffic.MsgsSent, bytes: m.Traffic.BytesSent}
			if m.Rounds != rounds {
				d.faults++
			}
			for _, w := range ws {
				d.rounds = append(d.rounds, len(w.Costs))
				d.finals = append(d.finals, lastCost(w.Costs))
				d.msgs += w.Traffic.MsgsSent
				d.bytes += w.Traffic.BytesSent
			}
			return d, nil
		},
	})
}

// lastCost is a node's final-round cost, NaN when it played no round.
func lastCost(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return xs[len(xs)-1]
}

// seededCosts draws one static affine cost per node from the seed, so
// optimum.Solve gives the exact per-round optimum to check the final
// gap against.
func seededCosts(seed int64, n int) []costfn.Func {
	rng := rand.New(rand.NewSource(seed))
	fs := make([]costfn.Func, n)
	for i := range fs {
		fs[i] = costfn.Affine{Slope: 1 + 15*rng.Float64(), Intercept: 0.5 * rng.Float64()}
	}
	return fs
}

// roundClock is the benchmark's CostSource wrapper: each Observe call
// marks the start of a round at its node, so a round's time is the gap
// between consecutive calls. Every node records its rounds after the
// warm-up into the shared op histogram; node 0 also keeps the set-up,
// first-round and timed-window marks and, when traced, opens one span
// per sampled round that the node's transport decorator nests its
// sends and receives under.
type roundClock struct {
	inner cluster.CostSource
	ops   *Hist
	warm  int
	last  time.Time

	// node 0 only
	probe *probe
}

// probe holds node 0's marks of one deployment. It is written only by
// node 0's goroutine and read after the deployment returns.
type probe struct {
	tracer *Tracer
	sample int
	// setupEnd is when the consensus that ends round warm reached node 0.
	setupEnd time.Time
	// first is round 1's duration at node 0.
	first time.Duration
	// timedRounds and timed cover rounds warm+1 .. last-1 at node 0.
	timedRounds int
	timed       time.Duration
	// cur is the open round span (0 when the round is not sampled).
	cur, trace uint64
	curStart   time.Time
}

func (c *roundClock) Observe(round int, x float64) (float64, costfn.Func, error) {
	now := time.Now()
	if round > c.warm+1 {
		c.ops.Record(now.Sub(c.last))
	}
	if p := c.probe; p != nil {
		if round == 2 {
			p.first = now.Sub(c.last)
		}
		if round == c.warm+1 {
			p.setupEnd = now
		}
		if round > c.warm+1 {
			p.timedRounds++
			p.timed += now.Sub(c.last)
		}
		if p.tracer != nil {
			if p.cur != 0 {
				p.tracer.Add(p.trace, p.cur, 0, "round", p.curStart, now)
			}
			p.cur = 0
			if round%p.sample == 0 {
				p.cur = p.tracer.NewID()
				p.trace, p.curStart = p.cur, now
			}
		}
	}
	c.last = now
	return c.inner.Observe(round, x)
}

// tracedTransport is the benchmark's Transport decorator: it times the
// Send and Recv calls of one node in sampled rounds and records them as
// child spans of the node's open round span.
type tracedTransport struct {
	inner  cluster.Transport
	tracer *Tracer
	// span returns the open round span, or ok=false when the current
	// round is not sampled.
	span func() (trace, parent uint64, ok bool)
	// sendName and recvName name the child spans; an empty name is not
	// recorded.
	sendName, recvName string
	// sent, when set, sees every envelope after a successful Send.
	sent func(env cluster.Envelope)
}

// timed runs call and, when the round is sampled and name is set,
// records it as a child span.
func (t *tracedTransport) timed(name string, call func()) {
	tr, parent, ok := t.span()
	if !ok || name == "" {
		call()
		return
	}
	start := time.Now()
	call()
	t.tracer.Add(tr, t.tracer.NewID(), parent, name, start, time.Now())
}

func (t *tracedTransport) Send(ctx context.Context, to int, env cluster.Envelope) (n int, err error) {
	t.timed(t.sendName, func() { n, err = t.inner.Send(ctx, to, env) })
	if err == nil && t.sent != nil {
		t.sent(env)
	}
	return n, err
}

func (t *tracedTransport) Recv(ctx context.Context) (env cluster.Envelope, n int, err error) {
	t.timed(t.recvName, func() { env, n, err = t.inner.Recv(ctx) })
	return env, n, err
}

func (t *tracedTransport) Close() error { return t.inner.Close() }

// masterRounds splits the master's timeline into rounds, each ending
// when the master sends the round's straggler assignment. It is used
// only from the master's goroutine.
type masterRounds struct {
	tracer     *Tracer
	sample     int
	round      int
	cur, trace uint64
	start      time.Time
}

func (m *masterRounds) span() (uint64, uint64, bool) { return m.trace, m.cur, m.cur != 0 }

func (m *masterRounds) sent(env cluster.Envelope) {
	if env.Kind != cluster.KindAssign {
		return
	}
	m.round++
	if m.cur == 0 && m.round%m.sample != 0 {
		return
	}
	end := time.Now()
	if m.cur != 0 {
		m.tracer.Add(m.trace, m.cur, 0, "master.round", m.start, end)
	}
	m.cur = 0
	if m.round%m.sample == 0 {
		m.cur = m.tracer.NewID()
		m.trace, m.start = m.cur, end
	}
}

func runRounds(env *runEnv, spec roundsSpec) (*outcome, error) {
	funcs := seededCosts(env.seed, spec.n)
	opt, err := optimum.Solve(funcs, 0)
	if err != nil {
		return nil, fmt.Errorf("offline optimum: %w", err)
	}
	out := &outcome{metrics: map[string]float64{}}
	if env.trace {
		out.tracer = NewTracer(1 << 19)
	}
	// In the traced run, even deployments run untraced and odd ones
	// traced, so the two op histograms give the tracing overhead.
	ops := [2]*Hist{new(Hist), new(Hist)}
	var (
		setups, firsts []float64
		// Per untraced deployment: op percentiles and node-0 rounds/s.
		p50s, p90s, p99s, rates []float64
		timedRounds             int
		ref                     *deployment
		msgs, bytes             int
	)
	start := time.Now()
	for k := 0; k < minDeployments || time.Since(start) < env.seconds; k++ {
		traced := env.trace && k%2 == 1
		// Collect the previous deployment's garbage outside the set-up
		// timer, so peak RSS holds one deployment, not two.
		runtime.GC()
		dep := new(Hist)
		d, p, err := deployOnce(env, spec, funcs, dep, traced, out.tracer)
		if err != nil {
			return nil, fmt.Errorf("deployment %d: %w", k, err)
		}
		ops[boolIndex(traced)].Merge(dep)
		if !traced {
			p50s = append(p50s, dep.Quantile(0.50))
			p90s = append(p90s, dep.Quantile(0.90))
			p99s = append(p99s, dep.Quantile(0.99))
			rates = append(rates, float64(p.timedRounds)/p.timed.Seconds())
		}
		out.attempted += int64(spec.n * spec.rounds)
		for i, r := range d.rounds {
			if r != spec.rounds {
				out.failed += int64(spec.rounds - r)
				out.gate(false, "deployment %d: node %d completed %d of %d rounds", k, i, r, spec.rounds)
			}
		}
		out.failed += int64(d.faults)
		out.gate(d.faults == 0, "deployment %d: %d peers evicted, admitted or crashed", k, d.faults)
		out.gate(d.msgs == spec.msgsPerRound*spec.rounds, "deployment %d: %d messages, want exactly %d per round (%d)",
			k, d.msgs, spec.msgsPerRound, spec.msgsPerRound*spec.rounds)
		if ref == nil {
			ref = &d
			msgs, bytes = d.msgs, d.bytes
			finalMax := math.Inf(-1)
			for _, c := range d.finals {
				finalMax = math.Max(finalMax, c)
			}
			out.gate(finalMax >= opt.Value*(1-1e-9), "final max cost %.6g below the optimum %.6g", finalMax, opt.Value)
			// Round 1 plays the uniform start; the share of its gap left
			// at the last round shows the deployment converged.
			startMax := math.Inf(-1)
			for _, f := range funcs {
				startMax = math.Max(startMax, f.Eval(1/float64(spec.n)))
			}
			left := (finalMax - opt.Value) / (startMax - opt.Value)
			out.gate(left <= spec.maxGapLeft, "the last round left %.4f of round 1's gap to the optimum, more than %.2f", left, spec.maxGapLeft)
			fmt.Fprintf(env.log, "final max cost %.9g, optimum %.9g, gap %.4f%%, round-1 gap left %.6f, final-cost digest %s\n",
				finalMax, opt.Value, (finalMax-opt.Value)/opt.Value*100, left, digest(d.finals))
		} else {
			out.gate(digest(d.finals) == digest(ref.finals), "deployment %d: final costs differ from deployment 0 under one seed", k)
			out.gate(d.bytes == ref.bytes, "deployment %d: %d bytes sent, deployment 0 sent %d", k, d.bytes, ref.bytes)
		}
		setups = append(setups, p.setupEnd.Sub(p.start).Seconds())
		firsts = append(firsts, p.first.Seconds())
		timedRounds += p.timedRounds
	}
	m := out.metrics
	if env.trace {
		l := Analyze(out.tracer.Spans())
		m = layerMetrics()
		out.metrics = m
		m["cluster.send_us"] = l.ChildP50("round", "cluster.send") / 1e3
		m["cluster.recv_wait_us"] = l.ChildP50("round", "cluster.recv") / 1e3
		m["cluster.peer_self_ms"] = l.SelfP50("round") / 1e6
		m["cluster.first_round_s"] = median(firsts)
		m["cluster.msgs_per_round"] = float64(msgs) / float64(spec.rounds)
		m["cluster.bytes_per_round_per_worker"] = float64(bytes) / float64(spec.rounds) / float64(spec.n)
		m["master.collect_wait_us"] = l.ChildP50("master.round", "master.recv") / 1e3
		m["master.self_us"] = l.SelfP50("master.round") / 1e3
		m["trace.overhead_p50_pct"] = overheadPct(ops[0], ops[1])
		return out, nil
	}
	// Each statistic is the median over deployments, so one deployment
	// slowed by the shared host does not move the run's result.
	m["op_p50_us"] = median(p50s) / 1e3
	m["op_p90_us"] = median(p90s) / 1e3
	m["op_p99_us"] = median(p99s) / 1e3
	m["work_per_s"] = median(rates)
	m["setup_s"] = median(setups)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	m["peak_rss_mb"] = rss
	fmt.Fprintf(env.log, "%s: %d deployments of %d rounds, %d timed rounds at node 0, %d op samples over all nodes\n",
		spec.name, len(setups), spec.rounds, timedRounds, ops[0].Count())
	return out, nil
}

// deployedProbe is node 0's probe plus the deployment's start mark.
type deployedProbe struct {
	probe
	start time.Time
}

// deployOnce builds and runs one deployment; its set-up clock starts
// before the network is built.
func deployOnce(env *runEnv, spec roundsSpec, funcs []costfn.Func, ops *Hist, traced bool, tracer *Tracer) (deployment, *deployedProbe, error) {
	p := &deployedProbe{start: time.Now()}
	if traced {
		p.tracer, p.sample = tracer, spec.sample
	}
	net := cluster.NewMemNet()
	tr := make([]cluster.Transport, spec.nodes)
	for i := range tr {
		tr[i] = net.Node(i)
	}
	if traced {
		tr[0] = &tracedTransport{
			inner: tr[0], tracer: tracer, sendName: "cluster.send", recvName: "cluster.recv",
			span: func() (uint64, uint64, bool) { return p.trace, p.cur, p.cur != 0 },
		}
		if spec.master >= 0 {
			mr := &masterRounds{tracer: tracer, sample: spec.sample}
			tr[spec.master] = &tracedTransport{
				inner: tr[spec.master], tracer: tracer, recvName: "master.recv",
				span: mr.span, sent: mr.sent,
			}
		}
	}
	src := make([]cluster.CostSource, spec.n)
	for i := range src {
		f := funcs[i]
		c := &roundClock{
			inner: cluster.FuncSource(func(_ int, x float64) (float64, costfn.Func, error) { return f.Eval(x), f, nil }),
			ops:   ops,
			warm:  spec.warm,
		}
		if i == 0 {
			c.probe = &p.probe
		}
		src[i] = c
	}
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	d, err := spec.deploy(ctx, tr, src, spec.rounds)
	for _, t := range tr {
		_ = t.Close() // MemNet close only marks the node closed
	}
	if err != nil {
		return d, nil, err
	}
	if p.setupEnd.IsZero() {
		return d, nil, errors.New("node 0 never reached the end of the warm-up")
	}
	return d, p, nil
}

// digest fingerprints a cost vector bit for bit.
func digest(xs []float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func boolIndex(b bool) int {
	if b {
		return 1
	}
	return 0
}
