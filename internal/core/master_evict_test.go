package core

import (
	"math"
	"testing"

	"dolbie/internal/costfn"
	"dolbie/internal/simplex"
)

// masterHarness runs MasterState against in-process WorkerStates, with
// the master's inbox delivered in a plan-chosen order and evictions,
// lost messages and junk from evicted ids injected at plan-chosen
// points. It checks the fail-stop invariants after every step.
type masterHarness struct {
	t       *testing.T
	m       *MasterState
	workers []*WorkerState
	rounds  int
	seed    uint64
	plan    []byte

	inbox   []any // CostReport or DecisionReport
	queue   []MasterOutput
	assigns map[int]bool
	ceiling float64 // alpha of the last Coordinate
	// drained is set once an assignment drains its straggler: the
	// rule-(7) cap then degenerates, and later rounds may overshoot the
	// simplex (DESIGN.md, known limitation 3), so the sum check stops.
	drained bool
}

// next consumes one plan byte (0 once the plan is exhausted).
func (h *masterHarness) next() byte {
	if len(h.plan) == 0 {
		return 0
	}
	b := h.plan[0]
	h.plan = h.plan[1:]
	return b
}

// play starts worker i's next round if the deployment still runs it.
func (h *masterHarness) play(i int) {
	w := h.workers[i]
	if w.Round() > h.rounds {
		return
	}
	k := h.seed*uint64(131*i+7*w.Round()+1) + uint64(i)
	f := costfn.Affine{Slope: 1 + float64(k%97)/10, Intercept: float64(k/97%5) / 10}
	rep, err := w.Observe(f.Eval(w.Play()), f)
	if err != nil {
		h.t.Fatalf("worker %d observe: %v", i, err)
	}
	h.inbox = append(h.inbox, rep)
}

// evict removes worker id at the master and queues what it unlocks.
func (h *masterHarness) evict(id int) {
	outs, err := h.m.Evict(id)
	if err != nil {
		h.t.Fatalf("evict %d: %v", id, err)
	}
	h.queue = append(h.queue, outs...)
}

// transmit delivers the master's queued outputs to the live workers,
// losing a Coordinate to its straggler or an Assign when the plan says
// so (the master then evicts the recipient at once, as the cluster loop
// does on a failed send).
func (h *masterHarness) transmit() {
	for len(h.queue) > 0 {
		o := h.queue[0]
		h.queue = h.queue[1:]
		if c := o.Coordinate; c != nil {
			if c.Alpha > h.ceiling {
				h.t.Fatalf("round %d: alpha grew from %v to %v", c.Round, h.ceiling, c.Alpha)
			}
			h.ceiling = c.Alpha
			for i, w := range h.workers {
				if !h.m.Alive(i) {
					continue
				}
				if i == c.Straggler && h.next()%8 == 1 {
					h.evict(i)
					continue
				}
				dec, err := w.HandleCoordinate(*c)
				if err != nil {
					h.t.Fatalf("worker %d coordinate: %v", i, err)
				}
				if dec != nil {
					h.inbox = append(h.inbox, *dec)
					h.play(i)
				}
			}
		}
		if a := o.Assign; a != nil {
			if h.assigns[a.Round] {
				h.t.Fatalf("second Assign for round %d", a.Round)
			}
			h.assigns[a.Round] = true
			drained := h.drained
			h.drained = h.drained || a.Next <= drainEps
			if !h.m.Alive(a.To) {
				continue // a lone survivor lost with its Coordinate
			}
			if h.next()%8 == 1 {
				h.evict(a.To)
				continue
			}
			if err := h.workers[a.To].HandleAssign(*a); err != nil {
				h.t.Fatalf("worker %d assign: %v", a.To, err)
			}
			var sum float64
			for _, i := range h.m.Survivors() {
				sum += h.workers[i].X()
			}
			if !drained && math.Abs(sum-1) > 1e-9 {
				h.t.Fatalf("round %d: survivors %v hold %v of the load, want 1", a.Round, h.m.Survivors(), sum)
			}
			h.play(a.To)
		}
	}
}

// junk sends a report from evicted worker id, which the master must
// drop without output or error.
func (h *masterHarness) junk(id int, b byte) {
	round := h.m.Round() + int(b%3) - 1
	var outs []MasterOutput
	var err error
	if b%2 == 0 {
		outs, err = h.m.HandleCost(CostReport{Round: round, From: id, Cost: float64(b)})
	} else {
		outs, err = h.m.HandleDecision(DecisionReport{Round: round, From: id, Next: float64(b) / 255})
	}
	if err != nil || len(outs) > 0 {
		h.t.Fatalf("junk from evicted %d: outs %v err %v", id, outs, err)
	}
}

// FuzzMasterEvict drives MasterState through fail-stop runs of 1 to 6
// workers: evictions at arbitrary points, lost Coordinates and
// Assigns, and late traffic from evicted ids. It asserts no panic, at
// most one Assign per round, a survivor simplex summing to 1 after each
// delivered assignment until a straggler drains to zero share (the
// documented drained-straggler degeneracy, which needs no eviction to
// occur), and a non-increasing step size: no Coordinate
// carries a larger alpha than the one before, and Alpha never exceeds
// the last broadcast value (re-evaluating the cap after a lost
// assignment can only relax it back toward that value).
func FuzzMasterEvict(f *testing.F) {
	f.Add(uint8(4), uint64(1), []byte{})
	f.Add(uint8(5), uint64(7), []byte{2, 0x10, 9, 2, 1, 0x21, 2, 0x30, 2, 2, 0x40})
	f.Add(uint8(3), uint64(3), []byte{2, 2, 2, 9, 9, 2, 2, 1, 2, 2, 9, 2})
	f.Add(uint8(0), uint64(5), []byte{0, 1, 0x11, 0x21})
	f.Add(uint8(6), uint64(11), []byte{2, 2, 2, 2, 2, 2, 0x30, 2, 1, 0x31, 2, 9, 2, 2, 0x50})
	f.Fuzz(func(t *testing.T, nb uint8, seed uint64, plan []byte) {
		n := 1 + int(nb%6)
		x0 := simplex.Uniform(n)
		m, err := NewMaster(x0)
		if err != nil {
			t.Fatal(err)
		}
		h := &masterHarness{t: t, m: m, rounds: 12, seed: seed | 1, plan: plan, assigns: make(map[int]bool), ceiling: m.Alpha()}
		for i := 0; i < n; i++ {
			w, err := NewWorker(i, n, x0[i])
			if err != nil {
				t.Fatal(err)
			}
			h.workers = append(h.workers, w)
			h.play(i)
		}
		for step := 0; step < 2000 && m.Round() <= h.rounds && m.AliveCount() > 0; step++ {
			b := h.next()
			switch {
			case b%16 == 1:
				h.evict(int(b/16) % n)
			case b%16 == 9:
				for id := 0; id < n; id++ {
					if !m.Alive(id) {
						h.junk(id, b/16)
						break
					}
				}
			case len(h.inbox) > 0:
				k := int(b/16) % len(h.inbox)
				msg := h.inbox[k]
				h.inbox = append(h.inbox[:k], h.inbox[k+1:]...)
				var outs []MasterOutput
				switch r := msg.(type) {
				case CostReport:
					outs, err = m.HandleCost(r)
				case DecisionReport:
					outs, err = m.HandleDecision(r)
				}
				if err != nil {
					t.Fatalf("deliver %+v: %v", msg, err)
				}
				h.queue = append(h.queue, outs...)
			default:
				// Nothing in flight: the master waits on silent
				// workers, which a deadline would evict.
				for _, id := range m.Missing() {
					h.evict(id)
				}
			}
			h.transmit()
			if a := m.Alpha(); a > h.ceiling {
				t.Fatalf("alpha %v above the last broadcast %v", a, h.ceiling)
			}
		}
	})
}
