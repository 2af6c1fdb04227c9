package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"dolbie/internal/core"
	"dolbie/internal/costfn"
	"dolbie/internal/metrics"
)

// CostSource provides a node's local cost feedback: after playing
// workload x in a round, the realized cost l = f(x) and the revealed
// local cost function f become observable. Implementations stand in for
// the node actually executing its workload (training a batch, running an
// offloaded task).
type CostSource interface {
	Observe(round int, x float64) (cost float64, f costfn.Func, err error)
}

// FuncSource adapts a plain function to a CostSource.
type FuncSource func(round int, x float64) (float64, costfn.Func, error)

// Observe implements CostSource.
func (fs FuncSource) Observe(round int, x float64) (float64, costfn.Func, error) {
	return fs(round, x)
}

// MasterID returns the node id conventionally used by the master in an
// n-worker deployment (the workers occupy ids 0..n-1).
func MasterID(n int) int { return n }

// MasterResult summarizes a completed master run.
type MasterResult struct {
	// Rounds is the number of fully coordinated rounds.
	Rounds int
	// FinalAlpha is the step size after the last round.
	FinalAlpha float64
	// Traffic counts the master's protocol messages and bytes.
	Traffic TrafficStats
}

// RunMaster executes the master side of Algorithm 1 for the given number
// of rounds over the transport, then returns. The caller owns the
// transport (it is not closed). Cancel the context to abort a wedged
// deployment; the error wraps the context error.
func RunMaster(ctx context.Context, tr Transport, x0 []float64, rounds int, opts ...core.Option) (MasterResult, error) {
	res, err := runMaster(ctx, tr, x0, rounds, ResilientConfig{}, opts...)
	if err != nil {
		return MasterResult{}, err
	}
	return MasterResult{Rounds: res.Rounds, FinalAlpha: res.FinalAlpha, Traffic: res.Traffic}, nil
}

// runMaster is the one Algorithm-1 master loop behind RunMaster and
// RunResilientMaster: it feeds received reports to core.MasterState and
// transmits the messages it emits. With rc.RoundTimeout > 0 it also
// imposes a deadline on each collection phase and evicts, as
// fail-stop crashes, the workers the phase still misses when it expires
// and any worker a send fails to. Without a deadline every failure is
// returned as an error, and a Recv costs no context or timer.
func runMaster(ctx context.Context, tr Transport, x0 []float64, rounds int, rc ResilientConfig, opts ...core.Option) (ResilientResult, error) {
	if rounds <= 0 {
		return ResilientResult{}, errors.New("cluster: rounds must be positive")
	}
	reg := core.RegistryFrom(opts...)
	meter := NewInstrumentedMeter(tr, reg, "master")
	m, err := core.NewMaster(x0, opts...)
	if err != nil {
		return ResilientResult{}, err
	}
	n := len(x0)
	self := MasterID(n)
	detect := rc.RoundTimeout > 0
	minWorkers := max(rc.MinWorkers, 1)
	var timeouts, crashes *metrics.Counter
	if detect && reg != nil {
		timeouts = reg.Counter(MetricRoundTimeouts, helpRoundTimeouts)
		crashes = reg.Counter(MetricWorkersCrashed, "Workers declared crashed by the resilient master.")
	}
	var (
		res    ResilientResult
		queue  []core.MasterOutput
		window deadlineWindow
	)
	defer window.close()
	result := func() ResilientResult {
		res.Rounds = m.Round() - 1
		return res
	}
	// evict declares workers crashed; the outputs their eviction
	// unlocks join the send queue.
	evict := func(ids []int) error {
		for _, id := range ids {
			outs, err := m.Evict(id)
			if err != nil {
				return err
			}
			queue = append(queue, outs...)
			res.Crashed = append(res.Crashed, id)
			if crashes != nil {
				crashes.Inc()
			}
		}
		if m.AliveCount() < minWorkers {
			return fmt.Errorf("%w: %d alive, need %d", ErrTooFewWorkers, m.AliveCount(), minWorkers)
		}
		return nil
	}
	// send transmits one message. Under fail-stop a failed send is a
	// crash signal about the target, unless the master's own context is
	// gone.
	send := func(to int, env Envelope, what string) error {
		if _, err := meter.Send(ctx, to, env); err != nil {
			if !detect || ctx.Err() != nil {
				return fmt.Errorf("cluster: master %s to %d: %w", what, to, err)
			}
			return evict([]int{to})
		}
		return nil
	}
	deadline := time.Now().Add(rc.RoundTimeout)
	for {
		if detect && len(queue) > 0 {
			deadline = time.Now().Add(rc.RoundTimeout)
		}
		for len(queue) > 0 {
			o := queue[0]
			queue = queue[1:]
			if o.Coordinate != nil {
				for i := 0; i < n; i++ {
					if m.Alive(i) {
						if err := send(i, coordinateEnvelope(self, i, *o.Coordinate), "coordinate"); err != nil {
							return result(), err
						}
					}
				}
			}
			if o.Assign != nil && m.Alive(o.Assign.To) {
				if err := send(o.Assign.To, assignEnvelope(self, *o.Assign), "assign"); err != nil {
					return result(), err
				}
			}
		}
		if m.Round() > rounds {
			break
		}
		recvCtx := ctx
		if detect {
			recvCtx = window.until(ctx, deadline)
		}
		env, _, err := meter.Recv(recvCtx)
		if err != nil {
			if detect && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
				window.close()
				if time.Now().Before(deadline) {
					continue // the deadline moved past the window's end
				}
				missing := m.Missing()
				if timeouts != nil && len(missing) > 0 {
					timeouts.Inc()
				}
				if err := evict(missing); err != nil {
					return result(), err
				}
				deadline = time.Now().Add(rc.RoundTimeout)
				continue
			}
			return result(), fmt.Errorf("cluster: master recv (round %d): %w", m.Round(), err)
		}
		var outs []core.MasterOutput
		switch env.Kind {
		case KindCost:
			var r core.CostReport
			if err := env.Decode(&r); err != nil {
				return result(), err
			}
			outs, err = m.HandleCost(r)
		case KindDecision:
			var r core.DecisionReport
			if err := env.Decode(&r); err != nil {
				return result(), err
			}
			outs, err = m.HandleDecision(r)
		default:
			return result(), fmt.Errorf("cluster: master received unexpected %s from %d", env.Kind, env.From)
		}
		if err != nil {
			return result(), fmt.Errorf("cluster: master: %w", err)
		}
		queue = append(queue, outs...)
	}
	res = result()
	res.FinalAlpha = m.Alpha()
	res.Survivors = m.Survivors()
	res.Traffic = meter.Stats()
	return res, nil
}

// WorkerResult summarizes a completed worker run.
type WorkerResult struct {
	// ID is the worker's index.
	ID int
	// Played[t] is the workload fraction executed in round t+1.
	Played []float64
	// Costs[t] is the realized local cost of round t+1.
	Costs []float64
	// Traffic counts the worker's protocol messages and bytes.
	Traffic TrafficStats
}

// RunWorker executes worker id of an n-worker Algorithm 1 deployment for
// the given number of rounds. src supplies the local cost feedback after
// each played round.
func RunWorker(ctx context.Context, tr Transport, id, n int, x0 float64, rounds int, src CostSource, opts ...core.Option) (WorkerResult, error) {
	if rounds <= 0 {
		return WorkerResult{}, errors.New("cluster: rounds must be positive")
	}
	if src == nil {
		return WorkerResult{}, errors.New("cluster: nil cost source")
	}
	meter := NewInstrumentedMeter(tr, core.RegistryFrom(opts...), fmt.Sprintf("worker-%d", id))
	w, err := core.NewWorker(id, n, x0, opts...)
	if err != nil {
		return WorkerResult{}, err
	}
	res := WorkerResult{
		ID:     id,
		Played: make([]float64, 0, rounds),
		Costs:  make([]float64, 0, rounds),
	}
	master := MasterID(n)
	for r := 1; r <= rounds; r++ {
		x := w.Play()
		cost, f, err := src.Observe(r, x)
		if err != nil {
			return WorkerResult{}, fmt.Errorf("cluster: worker %d observe round %d: %w", id, r, err)
		}
		rep, err := w.Observe(cost, f)
		if err != nil {
			return WorkerResult{}, err
		}
		if _, err := meter.Send(ctx, master, costEnvelope(master, rep)); err != nil {
			return WorkerResult{}, fmt.Errorf("cluster: worker %d cost report: %w", id, err)
		}
		res.Played = append(res.Played, x)
		res.Costs = append(res.Costs, cost)

		// Await the coordinate (and, as the straggler, the assignment).
		roundDone := false
		for !roundDone {
			env, _, err := meter.Recv(ctx)
			if err != nil {
				return WorkerResult{}, fmt.Errorf("cluster: worker %d recv round %d: %w", id, r, err)
			}
			switch env.Kind {
			case KindCoordinate:
				var c core.Coordinate
				if err := env.Decode(&c); err != nil {
					return WorkerResult{}, err
				}
				dec, err := w.HandleCoordinate(c)
				if err != nil {
					return WorkerResult{}, fmt.Errorf("cluster: worker %d: %w", id, err)
				}
				if dec != nil {
					if _, err := meter.Send(ctx, master, decisionEnvelope(master, *dec)); err != nil {
						return WorkerResult{}, fmt.Errorf("cluster: worker %d decision: %w", id, err)
					}
					roundDone = true
				}
			case KindAssign:
				var a core.StragglerAssign
				if err := env.Decode(&a); err != nil {
					return WorkerResult{}, err
				}
				if err := w.HandleAssign(a); err != nil {
					return WorkerResult{}, fmt.Errorf("cluster: worker %d: %w", id, err)
				}
				roundDone = true
			default:
				return WorkerResult{}, fmt.Errorf("cluster: worker %d received unexpected %s", id, env.Kind)
			}
		}
	}
	res.Traffic = meter.Stats()
	return res, nil
}

// PeerResult summarizes a completed fully-distributed peer run.
type PeerResult struct {
	// ID is the peer's index.
	ID int
	// Played[t] is the workload fraction executed in round t+1.
	Played []float64
	// Costs[t] is the realized local cost of round t+1.
	Costs []float64
	// FinalLocalAlpha is the peer's local step size after the last round.
	FinalLocalAlpha float64
	// Traffic counts the peer's protocol messages and bytes.
	Traffic TrafficStats
}

// RunPeer executes peer id of an Algorithm 2 deployment for the given
// number of rounds. It is the flat elastic peer engine without a
// failure detector: it never evicts, and any failure, a failed send
// included, is returned as an error.
func RunPeer(ctx context.Context, tr Transport, id int, x0 []float64, rounds int, src CostSource, opts ...core.Option) (PeerResult, error) {
	if err := checkPeerRun(rounds, src); err != nil {
		return PeerResult{}, err
	}
	meter := NewInstrumentedMeter(tr, core.RegistryFrom(opts...), fmt.Sprintf("peer-%d", id))
	er, err := runIncumbentPeer(ctx, meter, id, x0, rounds, src, ElasticPeerConfig{}, initialMembers(len(x0)), opts...)
	if err != nil {
		return PeerResult{}, err
	}
	return PeerResult{
		ID:              er.ID,
		Played:          er.Played,
		Costs:           er.Costs,
		FinalLocalAlpha: er.FinalLocalAlpha,
		Traffic:         er.Traffic,
	}, nil
}
