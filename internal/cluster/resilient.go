package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dolbie/internal/core"
	"dolbie/internal/metrics"
	"dolbie/internal/simplex"
)

// The paper assumes a fixed, reliable worker set. This file extends the
// master-worker deployment with fail-stop fault tolerance: the master
// imposes a deadline on each collection phase, declares workers that miss
// it crashed, folds their frozen workload into the straggler's remainder,
// and continues DOLBIE with the survivors. Crashed workers stay removed
// (fail-stop model); late messages from them are ignored rather than
// treated as protocol errors.

// ResilientConfig parameterizes RunResilientMaster.
type ResilientConfig struct {
	// RoundTimeout bounds each collection phase (cost reports, decision
	// reports). Workers that miss it are declared crashed.
	RoundTimeout time.Duration
	// MinWorkers aborts the run when fewer workers survive (default 1).
	MinWorkers int
	// InitialAlpha pins the initial step size alpha_1 (<= 0 derives it
	// from the initial partition, as in core.NewBalancer).
	InitialAlpha float64
	// StepRuleScale evaluates the rule-(7) cap in units of 1/scale of the
	// total workload (see core.AlphaCapScaled); <= 0 means 1.
	StepRuleScale float64
	// Metrics instruments the run: the master's traffic feeds the
	// dolbie_cluster_* counters, completed rounds feed the dolbie_core_*
	// families, and deadline expiries / crash detections feed
	// dolbie_cluster_round_timeouts_total and
	// dolbie_cluster_workers_crashed_total. Nil disables instrumentation.
	Metrics *metrics.Registry
}

// ResilientResult summarizes a resilient master run.
type ResilientResult struct {
	// Rounds is the number of completed rounds.
	Rounds int
	// Crashed lists the workers declared crashed, in detection order.
	Crashed []int
	// Survivors is the final live worker set.
	Survivors []int
	// FinalAlpha is the step size after the last round.
	FinalAlpha float64
	// Traffic counts the master's protocol messages and bytes.
	Traffic TrafficStats
}

// ErrTooFewWorkers is returned when crashes reduce the live worker set
// below ResilientConfig.MinWorkers.
var ErrTooFewWorkers = errors.New("cluster: too few live workers")

// RunResilientMaster executes the master side of Algorithm 1 with
// fail-stop crash handling. Unlike RunMaster it maintains the full
// workload vector itself, so it can rebalance around crashed workers:
// a crashed worker's workload is absorbed by the current straggler's
// remainder computation (the constraint sum x = 1 over live workers is
// restored in the same round the crash is detected).
func RunResilientMaster(ctx context.Context, tr Transport, x0 []float64, rounds int, rc ResilientConfig) (ResilientResult, error) {
	if rounds <= 0 {
		return ResilientResult{}, errors.New("cluster: rounds must be positive")
	}
	if err := simplex.Check(x0, 0); err != nil {
		return ResilientResult{}, fmt.Errorf("cluster: resilient master: %w", err)
	}
	if rc.RoundTimeout <= 0 {
		return ResilientResult{}, errors.New("cluster: RoundTimeout must be positive")
	}
	if rc.MinWorkers <= 0 {
		rc.MinWorkers = 1
	}

	n := len(x0)
	self := MasterID(n)
	meter := NewInstrumentedMeter(tr, rc.Metrics, "master")
	loop := &resilientLoop{tr: meter}
	var res ResilientResult
	rec := core.NewRecorder(rc.Metrics)
	var timeouts, crashCount *metrics.Counter
	if rc.Metrics != nil {
		timeouts = rc.Metrics.Counter(MetricRoundTimeouts, helpRoundTimeouts)
		crashCount = rc.Metrics.Counter(MetricWorkersCrashed, "Workers declared crashed by the resilient master.")
	}
	// markCrashed funnels every crash-detection site through the shared
	// accounting (result list + counters; deadline expiries also count a
	// round timeout).
	markCrashed := func(ids []int, deadline bool) {
		if len(ids) == 0 {
			return
		}
		res.Crashed = append(res.Crashed, ids...)
		if crashCount != nil {
			crashCount.Add(float64(len(ids)))
		}
		if deadline && timeouts != nil {
			timeouts.Inc()
		}
	}

	alive := make(map[int]bool, n)
	x := simplex.Clone(x0)
	for i := 0; i < n; i++ {
		alive[i] = true
	}
	alpha := core.InitialAlphaScaled(x0, rc.StepRuleScale)
	if rc.InitialAlpha > 0 && rc.InitialAlpha < alpha {
		alpha = rc.InitialAlpha
	}

	for round := 1; round <= rounds; round++ {
		// Phase 1: collect cost reports from live workers under deadline.
		costs, crashed, err := loop.collectCosts(ctx, alive, round, rc.RoundTimeout)
		if err != nil {
			return res, err
		}
		markCrashed(crashed, true)
		for id, c := range costs {
			rec.RecordWorkerCost(id, c)
		}
		if countTrue(alive) < rc.MinWorkers {
			return res, fmt.Errorf("%w: %d alive, need %d", ErrTooFewWorkers, countTrue(alive), rc.MinWorkers)
		}

		// Identify the straggler among live workers (lowest index on ties).
		straggler := -1
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			if straggler == -1 || costs[i] > costs[straggler] {
				straggler = i
			}
		}
		globalCost := costs[straggler]

		// Phase 2: broadcast the coordinate to live workers. A send failure
		// is itself a crash signal under the fail-stop model: mark the
		// worker dead and keep going (unless the master's own context is
		// gone).
		coord := core.Coordinate{Round: round, GlobalCost: globalCost, Alpha: alpha, Straggler: straggler}
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			if _, err := meter.Send(ctx, i, coordinateEnvelope(self, i, coord)); err != nil {
				if ctx.Err() != nil {
					return res, fmt.Errorf("cluster: resilient master coordinate to %d: %w", i, err)
				}
				alive[i] = false
				markCrashed([]int{i}, false)
			}
		}
		if !alive[straggler] {
			// The straggler died before receiving the coordinate; its
			// share folds into the next round via the dead-worker rule.
			res.Rounds = round
			continue
		}

		// Phase 3: collect decisions from live non-stragglers under
		// deadline; workers that miss it are crashed and their (frozen)
		// workload is folded into the straggler's remainder below.
		decisions, crashed, err := loop.collectDecisions(ctx, alive, round, straggler, rc.RoundTimeout)
		if err != nil {
			return res, err
		}
		markCrashed(crashed, true)
		if !alive[straggler] {
			// The straggler itself cannot crash in phase 3 (it sends
			// nothing), but keep the invariant check for clarity.
			return res, fmt.Errorf("cluster: straggler %d lost mid-round %d", straggler, round)
		}
		if countTrue(alive) < rc.MinWorkers {
			return res, fmt.Errorf("%w: %d alive, need %d", ErrTooFewWorkers, countTrue(alive), rc.MinWorkers)
		}

		// Update the workload vector: live non-stragglers take their
		// decisions; crashed workers' shares fold into the straggler.
		var taken float64
		for i := 0; i < n; i++ {
			if !alive[i] {
				x[i] = 0
				continue
			}
			if i == straggler {
				continue
			}
			x[i] = decisions[i]
			taken += x[i]
		}
		xs := 1 - taken
		if xs < 0 {
			xs = 0
		}
		x[straggler] = xs

		assign := assignEnvelope(self, core.StragglerAssign{Round: round, To: straggler, Next: xs})
		if _, err := meter.Send(ctx, straggler, assign); err != nil {
			if ctx.Err() != nil {
				return res, fmt.Errorf("cluster: resilient master assign to %d: %w", straggler, err)
			}
			alive[straggler] = false
			markCrashed([]int{straggler}, false)
		}

		// Step-size rule (7) in the configured units, with the same
		// degenerate-drain skip as the core balancer.
		if xs > 1e-12 {
			if c := core.AlphaCapScaled(xs, countTrue(alive), rc.StepRuleScale); c < alpha {
				alpha = c
			}
		}
		rec.RecordRound(straggler, globalCost, alpha)
		res.Rounds = round
	}
	res.FinalAlpha = alpha
	res.Traffic = meter.Stats()
	for i := 0; i < n; i++ {
		if alive[i] {
			res.Survivors = append(res.Survivors, i)
		}
	}
	return res, nil
}

// resilientLoop wraps the transport with a pending stash: cost reports
// for the next round can arrive while the master is still collecting the
// current round's decisions (a non-straggling worker starts its next
// round immediately after sending its decision) and must not be dropped.
type resilientLoop struct {
	tr      Transport
	pending []Envelope
}

// collectCosts gathers one cost report per live worker or declares
// non-reporters crashed at the deadline. Stale decisions (from rounds
// whose collection was abandoned) and messages from dead workers are
// ignored.
func (l *resilientLoop) collectCosts(ctx context.Context, alive map[int]bool, round int, timeout time.Duration) (map[int]float64, []int, error) {
	costs := make(map[int]float64)
	deadline := time.Now().Add(timeout)
	// Drain stashed cost reports first.
	stashed := l.pending
	l.pending = nil
	ingest := func(env Envelope) error {
		if env.Kind != KindCost {
			return nil // stale decision; drop
		}
		var r core.CostReport
		if err := env.Decode(&r); err != nil {
			return err
		}
		if r.Round != round || !alive[r.From] {
			return nil
		}
		costs[r.From] = r.Cost
		return nil
	}
	for _, env := range stashed {
		if err := ingest(env); err != nil {
			return nil, nil, err
		}
	}
	for len(costs) < countTrue(alive) {
		phaseCtx, cancel := context.WithDeadline(ctx, deadline)
		env, _, err := l.tr.Recv(phaseCtx)
		cancel()
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
				// Deadline: everyone who has not reported is crashed.
				var crashed []int
				for id, ok := range alive {
					if ok {
						if _, reported := costs[id]; !reported {
							alive[id] = false
							crashed = append(crashed, id)
						}
					}
				}
				return costs, crashed, nil
			}
			return nil, nil, fmt.Errorf("cluster: resilient master recv: %w", err)
		}
		if err := ingest(env); err != nil {
			return nil, nil, err
		}
	}
	return costs, nil, nil
}

// collectDecisions gathers decisions from live non-stragglers or declares
// non-reporters crashed at the deadline. Cost reports that arrive early
// (for the next round) are stashed for the next collectCosts.
func (l *resilientLoop) collectDecisions(ctx context.Context, alive map[int]bool, round, straggler int, timeout time.Duration) (map[int]float64, []int, error) {
	want := countTrue(alive) - 1
	decisions := make(map[int]float64)
	deadline := time.Now().Add(timeout)
	for len(decisions) < want {
		phaseCtx, cancel := context.WithDeadline(ctx, deadline)
		env, _, err := l.tr.Recv(phaseCtx)
		cancel()
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
				var crashed []int
				for id, ok := range alive {
					if ok && id != straggler {
						if _, reported := decisions[id]; !reported {
							alive[id] = false
							crashed = append(crashed, id)
						}
					}
				}
				return decisions, crashed, nil
			}
			return nil, nil, fmt.Errorf("cluster: resilient master recv: %w", err)
		}
		if env.Kind == KindCost {
			l.pending = append(l.pending, env)
			continue
		}
		if env.Kind != KindDecision {
			continue
		}
		var r core.DecisionReport
		if err := env.Decode(&r); err != nil {
			return nil, nil, err
		}
		if r.Round != round || !alive[r.From] || r.From == straggler {
			continue
		}
		decisions[r.From] = r.Next
	}
	return decisions, nil, nil
}

func countTrue(m map[int]bool) int {
	n := 0
	for _, ok := range m {
		if ok {
			n++
		}
	}
	return n
}
