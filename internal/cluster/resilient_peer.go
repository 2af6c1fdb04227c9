package cluster

import (
	"context"
	"errors"
	"time"

	"dolbie/internal/core"
	"dolbie/internal/metrics"
)

// This file extends the fully-distributed deployment (Algorithm 2) with
// the same fail-stop fault tolerance the resilient master gives
// Algorithm 1 — but without a trusted detector: every peer imposes a
// collection deadline of its own, declares the peers it is still missing
// crashed when the deadline expires (the identical detection rule the
// resilient master applies to silent workers), broadcasts the eviction
// so survivors converge by union, and continues DOLBIE over the survivor
// set. The survivor simplex is restored by the protocol itself: the next
// completed round's straggler remainder x_s = 1 - sum(survivor
// decisions) absorbs the evicted peers' frozen workload with no extra
// message exchange, and the rule-(8) step-size cap is re-evaluated at
// the survivor count (see core.PeerState.Evict).

// ResilientPeerConfig parameterizes RunResilientPeer.
type ResilientPeerConfig struct {
	// RoundTimeout is the progress deadline: when a peer spends this long
	// in a collection phase without accepting any protocol message, it
	// declares every peer it is still missing crashed. It must be
	// generously longer than a healthy round (including chaos delays), or
	// live peers will be evicted.
	RoundTimeout time.Duration
	// MinPeers aborts the run with ErrTooFewPeers when fewer peers
	// survive (default 1).
	MinPeers int
	// Metrics instruments the run: traffic feeds the dolbie_cluster_*
	// counters, deadline expiries feed
	// dolbie_cluster_round_timeouts_total, evictions feed
	// dolbie_cluster_peers_evicted_total, and completed rounds feed the
	// dolbie_core_* families. Nil disables instrumentation.
	Metrics *metrics.Registry
}

// ResilientPeerResult summarizes one peer's run under the fail-stop
// extension. A peer can finish in three ways: completing all rounds,
// learning of its own eviction (SelfEvicted — a partitioned but living
// peer told to stop), or losing its transport mid-run (Crashed — e.g. a
// chaos-injected crash). Only the first is a full-length run; none of
// the three is an error.
type ResilientPeerResult struct {
	// ID is the peer's index.
	ID int
	// Rounds is the number of rounds this peer completed locally.
	Rounds int
	// Played[t] is the workload fraction executed in round t+1.
	Played []float64
	// Costs[t] is the realized local cost of round t+1.
	Costs []float64
	// Evicted lists the peers this peer removed, in application order
	// (whether detected by its own deadline or learned from a notice).
	Evicted []int
	// EvictionRound maps each evicted peer to the round this peer was
	// executing when it applied the eviction.
	EvictionRound map[int]int
	// SelfEvicted reports that the peer stopped because a survivor
	// declared it crashed (fail-stop: it must not continue).
	SelfEvicted bool
	// Crashed reports that the peer's transport died mid-run.
	Crashed bool
	// FinalX is the peer's workload fraction when it stopped.
	FinalX float64
	// FinalLocalAlpha is the peer's local step size when it stopped.
	FinalLocalAlpha float64
	// Survivors is the peer's final view of the live peer set. It may
	// be shared with other peers' results; callers must not mutate it.
	Survivors []int
	// Traffic counts the peer's protocol messages and bytes.
	Traffic TrafficStats
}

// ErrTooFewPeers is returned when evictions reduce a peer's view of the
// live set below ResilientPeerConfig.MinPeers.
var ErrTooFewPeers = errors.New("cluster: too few live peers")

// RunResilientPeer executes peer id of an Algorithm 2 deployment with
// fail-stop crash handling. Unlike RunPeer it survives silent peers
// (deadline eviction), honors eviction notices from other peers (union
// rule: any single accuser suffices), stops cleanly when it learns of
// its own eviction, and reports — rather than fails on — the death of
// its own transport.
func RunResilientPeer(ctx context.Context, tr Transport, id int, x0 []float64, rounds int, src CostSource, rc ResilientPeerConfig, opts ...core.Option) (ResilientPeerResult, error) {
	// The fail-stop runtime is the flat, no-join degenerate case of the
	// elastic membership runtime (see elastic.go): same deadline
	// eviction, same union rule, same message-for-message behavior.
	er, err := RunElasticPeer(ctx, tr, id, x0, rounds, src, rc.elastic(), opts...)
	return er.resilient(), err
}

// elastic maps the fail-stop settings onto the flat elastic runtime.
func (rc ResilientPeerConfig) elastic() ElasticPeerConfig {
	return ElasticPeerConfig{
		RoundTimeout: rc.RoundTimeout,
		MinPeers:     rc.MinPeers,
		Metrics:      rc.Metrics,
		Topology:     TopologyFlat,
	}
}

// ResilientFullyDistributedDeployment runs a complete fail-stop
// Algorithm 2 deployment: peer i on transports[i], each in its own
// goroutine. Unlike FullyDistributedDeployment, one peer's death does
// not cancel the others — crashed and self-evicted peers are reported
// in their results while the survivors keep balancing. The returned
// error joins only genuine failures (configuration or protocol errors).
// It is a flat, no-join ElasticDeployment.
func ResilientFullyDistributedDeployment(ctx context.Context, transports []Transport, x0 []float64, rounds int, sources []CostSource, rc ResilientPeerConfig, opts ...core.Option) ([]ResilientPeerResult, error) {
	er, err := ElasticDeployment(ctx, transports, ElasticDeploymentConfig{X0: x0, Rounds: rounds, Sources: sources, Peer: rc.elastic()}, opts...)
	if er == nil {
		return nil, err
	}
	res := make([]ResilientPeerResult, len(er))
	for i, r := range er {
		res[i] = r.resilient()
	}
	return res, err
}
