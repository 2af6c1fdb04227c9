package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"dolbie/internal/costfn"
	"dolbie/internal/simplex"
)

// peerPair drives the production PeerState and the dense reference
// model (peer_dense_test.go) with one schedule and fails on the first
// output or state that differs in any bit.
type peerPair struct {
	t    *testing.T
	lazy *PeerState
	ref  *densePeer
	plan []byte
}

// next consumes one plan byte (0 once the plan is exhausted).
func (h *peerPair) next() byte {
	if len(h.plan) == 0 {
		return 0
	}
	b := h.plan[0]
	h.plan = h.plan[1:]
	return b
}

// value draws a finite float in [0, scale) from two plan bytes.
func (h *peerPair) value(scale float64) float64 {
	return scale * float64(uint16(h.next())<<8|uint16(h.next())) / 65536
}

// peerID draws an id in [-1, n+2): mostly known ids, sometimes junk.
func (h *peerPair) peerID() int {
	return int(h.next())%(h.ref.n+3) - 1
}

// sender draws the sender of a share or decision: mostly a peer the
// reference model still waits on, so schedules complete rounds often,
// and otherwise any id, junk and duplicates included.
func (h *peerPair) sender() int {
	b := h.next()
	if m := h.ref.Missing(); b%4 != 0 && len(m) > 0 {
		return m[int(b/4)%len(m)]
	}
	return h.peerID()
}

// level draws one of four values, so ties between peers are common
// (the straggler tie-break and the min step size are order-sensitive).
func (h *peerPair) level(scale float64) float64 {
	return scale * float64(1+h.next()%4) / 4
}

// round draws the current round or, now and then, a future one.
func (h *peerPair) round() int {
	d := int(h.next() % 6)
	if d > 2 {
		d = 0
	}
	return h.ref.round + d
}

// check compares one step's outputs and errors, then every observable.
func (h *peerPair) check(step string, a, b []PeerOutput, errA, errB error) {
	h.t.Helper()
	if fmt.Sprint(errA) != fmt.Sprint(errB) {
		h.t.Fatalf("%s: error %v, reference %v", step, errA, errB)
	}
	if got, want := formatOutputs(a), formatOutputs(b); got != want {
		h.t.Fatalf("%s: outputs %s, reference %s", step, got, want)
	}
	l, r := h.lazy, h.ref
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	switch {
	case !same(l.X(), r.X()):
		h.t.Fatalf("%s: X %v, reference %v", step, l.X(), r.X())
	case !same(l.LocalAlpha(), r.LocalAlpha()):
		h.t.Fatalf("%s: LocalAlpha %v, reference %v", step, l.LocalAlpha(), r.LocalAlpha())
	case l.Straggler() != r.Straggler():
		h.t.Fatalf("%s: Straggler %d, reference %d", step, l.Straggler(), r.Straggler())
	case !same(l.ConsensusAlpha(), r.ConsensusAlpha()):
		h.t.Fatalf("%s: ConsensusAlpha %v, reference %v", step, l.ConsensusAlpha(), r.ConsensusAlpha())
	case fmt.Sprint(l.Missing()) != fmt.Sprint(r.Missing()):
		h.t.Fatalf("%s: Missing %v, reference %v", step, l.Missing(), r.Missing())
	case l.Round() != r.Round() || l.AliveCount() != r.AliveCount():
		h.t.Fatalf("%s: round %d alive %d, reference round %d alive %d", step, l.Round(), l.AliveCount(), r.Round(), r.AliveCount())
	case fmt.Sprint(l.Survivors()) != fmt.Sprint(r.Survivors()):
		h.t.Fatalf("%s: Survivors %v, reference %v", step, l.Survivors(), r.Survivors())
	}
}

// formatOutputs renders outputs with every float as its bit pattern.
func formatOutputs(outs []PeerOutput) string {
	s := ""
	for _, o := range outs {
		switch {
		case o.Share != nil:
			sh := o.Share
			s += fmt.Sprintf("share{%d %d %x %x %x} ", sh.Round, sh.From,
				math.Float64bits(sh.Cost), math.Float64bits(sh.LocalAlpha), math.Float64bits(sh.Renorm))
		case o.Decision != nil:
			d := o.Decision
			s += fmt.Sprintf("decision{%d %d %d %x} ", d.Round, d.From, d.To, math.Float64bits(d.Next))
		default:
			s += fmt.Sprintf("done=%v ", o.Done)
		}
	}
	return s
}

// FuzzPeerStateDense checks that the production PeerState, which keeps
// its own share in scalars and allocates the N-entry arrays lazily, is
// bit-identical to the dense reference model under arbitrary schedules.
// The first plan bytes pick N, the peer's id, a flat or a tree schedule
// and whether the peer joined mid-run; the rest is a sequence of steps:
// Observe, shares and decisions for the current or a future round (flat
// schedules), externally computed consensus (tree schedules), evictions
// and admissions, with junk ids and duplicates mixed in.
func FuzzPeerStateDense(f *testing.F) {
	f.Add([]byte{3, 1, 0, 0, 0, 9, 9, 1, 0, 7, 1, 2, 5, 1, 3, 0, 7, 1, 2, 2, 0, 0, 4, 4})
	f.Add([]byte{4, 2, 1, 0, 0, 1, 2, 5, 0, 0, 3, 3, 0, 0, 9, 4, 7, 1, 0, 5, 6, 5, 1, 2, 8, 8})
	f.Add([]byte{2, 0, 0, 1, 0, 4, 4, 1, 1, 0, 1, 0, 6, 6, 0, 0, 2, 0, 1, 0, 3, 7, 0})
	f.Add([]byte{5, 0, 0, 0, 6, 6, 6, 6, 6, 0, 9, 9, 1, 1, 0, 0, 8, 8, 0, 1, 2, 0, 3, 3, 2, 3, 0, 0})
	f.Fuzz(checkPeerSchedule)
}

// maxPlan caps the schedule length: longer plans add no new
// interleavings but make input minimization quadratic.
const maxPlan = 192

// checkPeerSchedule runs one FuzzPeerStateDense schedule.
func checkPeerSchedule(t *testing.T, plan []byte) {
	if len(plan) > maxPlan {
		plan = plan[:maxPlan]
	}
	h := &peerPair{t: t, plan: plan}
	n := 1 + int(h.next()%6)
	id := int(h.next()) % n
	tree := h.next()%2 == 1
	joined := h.next()%4 == 1
	var err, errRef error
	if joined {
		members := []int{id}
		for m := 0; m < n; m++ {
			if m != id && h.next()%3 != 0 {
				members = append(members, m)
			}
		}
		w, a := 0.05+h.value(0.9), 0.01+h.value(1)
		h.lazy, err = NewJoinedPeer(id, members, w, a, 1)
		h.ref, errRef = newDenseJoinedPeer(id, members, w, a, 1)
	} else {
		x0 := simplex.Uniform(n)
		h.lazy, err = NewPeer(id, x0)
		h.ref, errRef = newDensePeer(id, x0)
	}
	if err != nil || errRef != nil {
		t.Fatalf("construct: %v / %v", err, errRef)
	}
	h.check("construct", nil, nil, nil, nil)
	for step := 0; len(h.plan) > 0; step++ {
		var a, b []PeerOutput
		var errA, errB error
		op := h.next() % 8
		if tree && op == 1 {
			op = 5 // tree schedules deliver the consensus, not shares
		}
		var name string
		switch op {
		case 0, 7:
			name = "Observe"
			fn := costfn.Affine{Slope: 0.5 + h.value(8), Intercept: h.value(1)}
			c := h.level(4)
			a, errA = h.lazy.Observe(c, fn)
			b, errB = h.ref.Observe(c, fn)
		case 1:
			var renorm float64
			if h.next()%8 == 0 {
				renorm = 1 + h.value(0.5)
			}
			s := PeerShare{Round: h.round(), From: h.sender(), Cost: h.level(4), LocalAlpha: h.level(1), Renorm: renorm}
			name = fmt.Sprintf("HandleShare(%+v)", s)
			a, errA = h.lazy.HandleShare(s)
			b, errB = h.ref.HandleShare(s)
		case 2:
			to := h.ref.id
			if h.next()%8 == 0 {
				to = h.peerID()
			}
			d := PeerDecision{Round: h.round(), From: h.sender(), To: to, Next: h.value(0.9)}
			name = fmt.Sprintf("HandleDecision(%+v)", d)
			a, errA = h.lazy.HandleDecision(d)
			b, errB = h.ref.HandleDecision(d)
		case 3:
			v := h.peerID()
			name = fmt.Sprintf("Evict(%d)", v)
			a, errA = h.lazy.Evict(v)
			b, errB = h.ref.Evict(v)
		case 4:
			v := h.peerID()
			w := 0.05 + h.value(0.9)
			name = fmt.Sprintf("Admit(%d, %v)", v, w)
			errA = h.lazy.Admit(v, w)
			errB = h.ref.Admit(v, w)
		case 5, 6:
			var renorm float64
			if h.next()%8 == 0 {
				renorm = 1 + h.value(0.5)
			}
			r, s := h.round(), h.peerID()
			alpha, l := h.value(1), h.value(10)
			name = fmt.Sprintf("ApplyConsensus(%d, %d, %v, %v, %v)", r, s, alpha, l, renorm)
			a, errA = h.lazy.ApplyConsensus(r, s, alpha, l, renorm)
			b, errB = h.ref.ApplyConsensus(r, s, alpha, l, renorm)
		}
		h.check(fmt.Sprintf("step %d %s", step, name), a, b, errA, errB)
	}
}

// TestTreePeerFootprint pins the per-peer memory of the aggregation
// tree: a non-straggler that plays a round and applies a consensus it
// did not compute holds its liveness view (one byte per peer) and no
// N-entry float array. The dense layout allocated seven N-entry arrays.
func TestTreePeerFootprint(t *testing.T) {
	const n, runs = 4096, 20
	x0 := simplex.Uniform(n)
	fn := costfn.Affine{Slope: 2, Intercept: 0.1}
	round := func() {
		p, err := NewPeer(1, x0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Observe(fn.Eval(p.Play()), fn); err != nil {
			t.Fatal(err)
		}
		outs, err := p.ApplyConsensus(1, 0, 0.5, 10, 0)
		if err != nil || len(outs) != 2 || outs[0].Decision == nil {
			t.Fatalf("ApplyConsensus = %v, %v; want a decision and done", outs, err)
		}
	}
	round()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per peer-round at N=%d", per, n)
	if per >= 8*n {
		t.Errorf("tree peer allocated %d bytes at N=%d, at least one N-entry float array (%d bytes)", per, n, 8*n)
	}
}
