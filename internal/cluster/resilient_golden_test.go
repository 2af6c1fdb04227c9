package cluster

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"dolbie/internal/core"
	"dolbie/internal/costfn"
	"dolbie/internal/simplex"
)

// errLinkDown is the send error injected by failingSends.
var errLinkDown = errors.New("link down")

// failingSends wraps a transport and fails, without delivering, every
// send the predicate selects: a deterministic stand-in for a link to one
// worker going down at a chosen point of the protocol.
type failingSends struct {
	Transport
	fail func(env Envelope) bool
}

func (f failingSends) Send(ctx context.Context, to int, env Envelope) (int, error) {
	if f.fail(env) {
		return 0, errLinkDown
	}
	return f.Transport.Send(ctx, to, env)
}

// assignLost fails the master's StragglerAssign of the given round.
func assignLost(round int) func(Envelope) bool {
	return func(env Envelope) bool {
		var a core.StragglerAssign
		return env.Kind == KindAssign && env.Decode(&a) == nil && a.Round == round
	}
}

// coordinateLost fails the round's Coordinate to the worker pick selects
// (given the envelope's recipient and the round's straggler).
func coordinateLost(round int, pick func(to, straggler int) bool) func(Envelope) bool {
	return func(env Envelope) bool {
		var c core.Coordinate
		return env.Kind == KindCoordinate && env.Decode(&c) == nil && c.Round == round && pick(env.To, c.Straggler)
	}
}

// faultSchedule is one resilient master-worker run: workers in crashAt
// fail-stop at the given round (their cost source errors), and master
// sends selected by lost fail.
type faultSchedule struct {
	n, rounds int
	timeout   time.Duration
	alpha     float64 // pinned initial alpha; 0 derives it
	crashAt   map[int]int
	lost      func(Envelope) bool
}

// faultOutcome is the deterministic part of a schedule's result: the
// master's ResilientResult fields, the workers that ended in an error,
// and a digest of every worker's Played series.
type faultOutcome struct {
	Rounds     int
	Crashed    []int
	Survivors  []int
	FinalAlpha float64
	Traffic    TrafficStats
	Failed     []int
	Played     string
}

// playedDigest hashes the bit patterns of the workers' Played series.
func playedDigest(played [][]float64) string {
	h := sha256.New()
	for i, xs := range played {
		fmt.Fprintf(h, "%d:", i)
		for _, x := range xs {
			fmt.Fprintf(h, "%x,", math.Float64bits(x))
		}
		fmt.Fprint(h, ";")
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// runFaultSchedule deploys the resilient master against plain workers
// over MemNet. Played is recorded at the cost source, so a failed
// worker's series is kept up to its last round. Once the master
// returns, the workers it declared crashed are canceled (one stranded
// by a lost message would otherwise wait forever), and the survivors
// finish on their own.
func runFaultSchedule(t *testing.T, s faultSchedule) faultOutcome {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ts := memTransports(NewMemNet(), s.n+1)
	if s.lost != nil {
		ts[s.n] = failingSends{Transport: ts[s.n], fail: s.lost}
	}
	x0 := simplex.Uniform(s.n)
	played := make([][]float64, s.n)
	errs := make([]error, s.n)
	stop := make([]context.CancelFunc, s.n)
	var wg sync.WaitGroup
	for i := 0; i < s.n; i++ {
		var wctx context.Context
		wctx, stop[i] = context.WithCancel(ctx)
		defer stop[i]()
		var src CostSource = instSource(i)
		if at, ok := s.crashAt[i]; ok {
			src = crashingSource{inner: src, crashAt: at}
		}
		rec := FuncSource(func(round int, x float64) (float64, costfn.Func, error) {
			played[i] = append(played[i], x)
			return src.Observe(round, x)
		})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = RunWorker(wctx, ts[i], i, s.n, x0[i], s.rounds, rec)
		}(i)
	}
	var opts []core.Option
	if s.alpha > 0 {
		opts = append(opts, core.WithInitialAlpha(s.alpha))
	}
	res, err := RunResilientMaster(ctx, ts[s.n], x0, s.rounds, ResilientConfig{RoundTimeout: s.timeout}, opts...)
	for _, id := range res.Crashed {
		stop[id]()
	}
	if err != nil {
		cancel()
		wg.Wait()
		t.Fatalf("resilient master: %v", err)
	}
	wg.Wait()
	out := faultOutcome{
		Rounds:     res.Rounds,
		Crashed:    res.Crashed,
		Survivors:  res.Survivors,
		FinalAlpha: res.FinalAlpha,
		Traffic:    res.Traffic,
		Played:     playedDigest(played),
	}
	for i, err := range errs {
		if err != nil {
			out.Failed = append(out.Failed, i)
		}
	}
	return out
}

// TestResilientMasterFaultGoldens pins the resilient master's outcome
// on every crash schedule of the resilient tests plus lost master sends
// (assignment to the straggler, coordinate to the straggler, coordinate
// to a bystander). Every field is deterministic across repeated runs;
// the values were recorded from the original hand-written resilient
// master, so they fix the fail-stop semantics of the shared Algorithm-1
// engine: survivor-only straggler pick and remainder, the rule-(7) cap
// at the survivor count, and an abandoned round when the straggler is
// lost before its coordinate.
func TestResilientMasterFaultGoldens(t *testing.T) {
	cases := []struct {
		name string
		s    faultSchedule
		want faultOutcome
	}{
		{
			name: "worker2-crashes-round4",
			s:    faultSchedule{n: 5, rounds: 12, timeout: 300 * time.Millisecond, alpha: 0.05, crashAt: map[int]int{2: 4}},
			want: faultOutcome{Rounds: 12, Crashed: []int{2}, Survivors: []int{0, 1, 3, 4}, FinalAlpha: 0.0402773176012644,
				Traffic: TrafficStats{MsgsSent: 63, MsgsReceived: 90, BytesSent: 2250, BytesRecv: 2340}, Failed: []int{2}, Played: "fd880dd5647ce59a"},
		},
		{
			name: "workers1and4-crash-rounds3and7",
			s:    faultSchedule{n: 6, rounds: 14, timeout: 300 * time.Millisecond, alpha: 0.05, crashAt: map[int]int{1: 3, 4: 7}},
			want: faultOutcome{Rounds: 14, Crashed: []int{1, 4}, Survivors: []int{0, 2, 3, 5}, FinalAlpha: 0.029189342750072813,
				Traffic: TrafficStats{MsgsSent: 78, MsgsReceived: 114, BytesSent: 2796, BytesRecv: 2964}, Failed: []int{1, 4}, Played: "be878e74d7e7e71d"},
		},
		{
			name: "worker2-crashes-round3-derived-alpha",
			s:    faultSchedule{n: 4, rounds: 50, timeout: 200 * time.Millisecond, crashAt: map[int]int{2: 3}},
			want: faultOutcome{Rounds: 50, Crashed: []int{2}, Survivors: []int{0, 1, 3}, FinalAlpha: 0.05556076079827603,
				Traffic: TrafficStats{MsgsSent: 202, MsgsReceived: 254, BytesSent: 7076, BytesRecv: 6604}, Failed: []int{2}, Played: "3e13bf4870746ad1"},
		},
		{
			name: "assign-lost-round5",
			s:    faultSchedule{n: 5, rounds: 12, timeout: 5 * time.Second, alpha: 0.05, lost: assignLost(5)},
			want: faultOutcome{Rounds: 12, Crashed: []int{4}, Survivors: []int{0, 1, 2, 3}, FinalAlpha: 0.0402773176012644,
				Traffic: TrafficStats{MsgsSent: 64, MsgsReceived: 94, BytesSent: 2300, BytesRecv: 2444}, Failed: []int{4}, Played: "7d01ce4ce0b3bcae"},
		},
		{
			name: "assign-lost-round2-derived-alpha",
			s:    faultSchedule{n: 5, rounds: 12, timeout: 5 * time.Second, lost: assignLost(2)},
			want: faultOutcome{Rounds: 12, Crashed: []int{2}, Survivors: []int{0, 1, 3, 4}, FinalAlpha: 0.04417377451793831,
				Traffic: TrafficStats{MsgsSent: 61, MsgsReceived: 88, BytesSent: 2186, BytesRecv: 2288}, Failed: []int{2}, Played: "0f60cd9c01d0d9e4"},
		},
		{
			name: "assign-lost-round6-derived-alpha",
			s:    faultSchedule{n: 5, rounds: 12, timeout: 5 * time.Second, lost: assignLost(6)},
			want: faultOutcome{Rounds: 12, Crashed: []int{3}, Survivors: []int{0, 1, 2, 4}, FinalAlpha: 0.035481925612532904,
				Traffic: TrafficStats{MsgsSent: 65, MsgsReceived: 96, BytesSent: 2338, BytesRecv: 2496}, Failed: []int{3}, Played: "767416eb3b1f8efd"},
		},
		{
			name: "coordinate-to-straggler-lost-round5",
			s: faultSchedule{n: 5, rounds: 12, timeout: 5 * time.Second, alpha: 0.05,
				lost: coordinateLost(5, func(to, straggler int) bool { return to == straggler })},
			want: faultOutcome{Rounds: 12, Crashed: []int{4}, Survivors: []int{0, 1, 2, 3}, FinalAlpha: 0.0402773176012644,
				Traffic: TrafficStats{MsgsSent: 63, MsgsReceived: 94, BytesSent: 2262, BytesRecv: 2444}, Failed: []int{4}, Played: "7d01ce4ce0b3bcae"},
		},
		{
			name: "coordinate-to-bystander-lost-round6",
			s: faultSchedule{n: 5, rounds: 12, timeout: 5 * time.Second, alpha: 0.05,
				lost: coordinateLost(6, func(to, straggler int) bool { return to != straggler && to == (straggler+1)%5 })},
			want: faultOutcome{Rounds: 12, Crashed: []int{4}, Survivors: []int{0, 1, 2, 3}, FinalAlpha: 0.03749669655048905,
				Traffic: TrafficStats{MsgsSent: 65, MsgsReceived: 95, BytesSent: 2326, BytesRecv: 2470}, Failed: []int{4}, Played: "b840ac7bfa703401"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runFaultSchedule(t, tc.s)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("outcome diverged from golden:\n got %#v\nwant %#v", got, tc.want)
			}
		})
	}
}
