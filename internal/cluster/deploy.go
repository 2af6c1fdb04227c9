package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"dolbie/internal/core"
)

// MasterWorkerDeployment runs a complete Algorithm 1 deployment: the
// master on transports[n] (see MasterID) and worker i on transports[i],
// each in its own goroutine, for the given number of rounds. sources[i]
// supplies worker i's local cost feedback. The call returns when every
// node finishes or any node fails; on failure the context handed to the
// surviving nodes is canceled so they unwind promptly.
func MasterWorkerDeployment(ctx context.Context, transports []Transport, x0 []float64, rounds int, sources []CostSource, opts ...core.Option) (MasterResult, []WorkerResult, error) {
	n := len(x0)
	if len(transports) != n+1 {
		return MasterResult{}, nil, fmt.Errorf("cluster: need %d transports (n workers + master), got %d", n+1, len(transports))
	}
	if len(sources) != n {
		return MasterResult{}, nil, fmt.Errorf("cluster: need %d cost sources, got %d", n, len(sources))
	}
	var masterRes MasterResult
	workerRes := make([]WorkerResult, n)
	err := fanOut(ctx, n+1, true, func(ctx context.Context, i int) (err error) {
		if i == n {
			if masterRes, err = RunMaster(ctx, transports[n], x0, rounds, opts...); err != nil {
				return fmt.Errorf("master: %w", err)
			}
			return nil
		}
		if workerRes[i], err = RunWorker(ctx, transports[i], i, n, x0[i], rounds, sources[i], opts...); err != nil {
			return fmt.Errorf("worker %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return MasterResult{}, nil, err
	}
	return masterRes, workerRes, nil
}

// FullyDistributedDeployment runs a complete Algorithm 2 deployment: peer
// i on transports[i], each in its own goroutine. Like
// MasterWorkerDeployment, one peer's failure cancels the others.
func FullyDistributedDeployment(ctx context.Context, transports []Transport, x0 []float64, rounds int, sources []CostSource, opts ...core.Option) ([]PeerResult, error) {
	n := len(x0)
	if len(transports) != n {
		return nil, fmt.Errorf("cluster: need %d transports, got %d", n, len(transports))
	}
	if len(sources) != n {
		return nil, fmt.Errorf("cluster: need %d cost sources, got %d", n, len(sources))
	}
	res := make([]PeerResult, n)
	err := fanOut(ctx, n, true, func(ctx context.Context, i int) (err error) {
		if res[i], err = RunPeer(ctx, transports[i], i, x0, rounds, sources[i], opts...); err != nil {
			return fmt.Errorf("peer %d: %w", i, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// fanOut runs node(ctx, i) for i in [0, n), each in its own goroutine,
// and joins their errors. With cancelOnError the first failure cancels
// the context of the others: the round barrier cannot complete without
// every node. Otherwise nodes run independently to their own end.
func fanOut(ctx context.Context, n int, cancelOnError bool, node func(ctx context.Context, i int) error) error {
	cancel := func() {}
	if cancelOnError {
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := node(ctx, i); err != nil {
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
				cancel()
			}
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Trajectory reassembles the per-round decision vectors from a set of
// worker or peer results (Played[t] of each node). All results must cover
// the same number of rounds.
func Trajectory(played [][]float64) ([][]float64, error) {
	if len(played) == 0 {
		return nil, errors.New("cluster: no nodes")
	}
	rounds := len(played[0])
	for i, p := range played {
		if len(p) != rounds {
			return nil, fmt.Errorf("cluster: node %d covers %d rounds, want %d", i, len(p), rounds)
		}
	}
	out := make([][]float64, rounds)
	for t := 0; t < rounds; t++ {
		x := make([]float64, len(played))
		for i := range played {
			x[i] = played[i][t]
		}
		out[t] = x
	}
	return out, nil
}
