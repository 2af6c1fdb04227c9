package cluster

import (
	"context"
	"errors"
	"time"

	"dolbie/internal/core"
)

// The paper assumes a fixed, reliable worker set. RunResilientMaster
// extends the master-worker deployment with fail-stop fault tolerance:
// the master imposes a deadline on each collection phase, declares
// workers that miss it (or that a send fails to) crashed, folds their
// frozen workload into the straggler's remainder, and continues DOLBIE
// with the survivors. Crashed workers stay removed (fail-stop model);
// late messages from them are ignored rather than treated as protocol
// errors. The protocol rules live in core.MasterState (see Evict); this
// runtime shares its loop with RunMaster.

// ResilientConfig parameterizes RunResilientMaster. The step size, the
// rule-(7) units and metrics are core options (core.WithInitialAlpha,
// core.WithStepRuleScale, core.WithMetrics), as for RunMaster.
type ResilientConfig struct {
	// RoundTimeout bounds each collection phase (cost reports, decision
	// reports). Workers that miss it are declared crashed.
	RoundTimeout time.Duration
	// MinWorkers aborts the run when fewer workers survive (default 1).
	MinWorkers int
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
// fail-stop crash handling. A crashed worker's workload is absorbed by
// the next completed round's straggler remainder, restoring sum x = 1
// over the live workers. With core.WithMetrics, the master's traffic
// feeds the dolbie_cluster_* counters, completed rounds the
// dolbie_core_* families, and deadline expiries and crash detections
// dolbie_cluster_round_timeouts_total and
// dolbie_cluster_workers_crashed_total.
func RunResilientMaster(ctx context.Context, tr Transport, x0 []float64, rounds int, rc ResilientConfig, opts ...core.Option) (ResilientResult, error) {
	if rc.RoundTimeout <= 0 {
		return ResilientResult{}, errors.New("cluster: RoundTimeout must be positive")
	}
	return runMaster(ctx, tr, x0, rounds, rc, opts...)
}
