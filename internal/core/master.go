package core

import (
	"fmt"

	"dolbie/internal/simplex"
)

// MasterState is the master's half of Algorithm 1 (DOLBIE, master-worker
// version) as a pure, transport-agnostic state machine. Feed it incoming
// CostReport and DecisionReport messages; it emits the Coordinate
// broadcasts and StragglerAssign messages the master must send.
//
// The state machine tolerates messages that arrive for a future round
// (possible on real transports because a non-straggling worker can start
// round t+1 before the master finishes round t) by buffering them. It is
// not safe for concurrent use; a master node owns exactly one.
//
// The paper assumes a fixed, reliable worker set; like PeerState, the
// master additionally supports the runtime's fail-stop extension: Evict
// removes a crashed worker mid-run, after which the straggler pick, the
// remainder and the rule-(7) cap are taken over the survivors, and late
// traffic from the evicted id is dropped. The evicted worker's frozen
// share is absorbed by the next completed round's straggler remainder.
type MasterState struct {
	n         int
	round     int // round currently being coordinated (1-based)
	alpha     float64
	capScale  float64
	collected int
	costs     []float64
	costSeen  []bool

	decided   int
	decisions []float64
	decSeen   []bool
	straggler int
	inDecide  bool // false: collecting costs; true: collecting decisions

	alive      []bool
	aliveCount int
	// assigned is the StragglerAssign of the call that just returned,
	// kept until the next call: evicting its straggler as the very next
	// action (the assignment could not be delivered) re-evaluates that
	// round's rule-(7) cap without it.
	assigned assignment
	// abandoned holds the rounds whose straggler was evicted before its
	// assignment; their late decisions are dropped.
	abandoned map[int]bool

	pendingCosts     map[int][]CostReport
	pendingDecisions map[int][]DecisionReport

	rec *Recorder
}

// assignment records a just-emitted StragglerAssign and the step size
// before its round's cap.
type assignment struct {
	valid     bool
	straggler int
	xs        float64
	alpha     float64
}

// MasterOutput is one message the master must transmit: exactly one of
// the fields is non-nil. Coordinate is a broadcast to all workers;
// Assign goes to the worker Assign.To.
type MasterOutput struct {
	Coordinate *Coordinate
	Assign     *StragglerAssign
}

// NewMaster constructs the master for an N-worker deployment initialized
// at partition x0. Options follow NewBalancer; a pinned initial alpha is
// capped at the feasibility rule evaluated at min_i x0_i, which is the
// invariant that keeps every subsequent round feasible (see Section IV-B
// of the paper and the discussion in balancer.go).
func NewMaster(x0 []float64, opts ...Option) (*MasterState, error) {
	if err := simplex.Check(x0, 0); err != nil {
		return nil, fmt.Errorf("core: master initial partition: %w", err)
	}
	var o balancerOptions
	for _, opt := range opts {
		opt(&o)
	}
	n := len(x0)
	alpha := InitialAlphaScaled(x0, o.capScale)
	if o.initialAlpha > 0 && o.initialAlpha < alpha {
		alpha = o.initialAlpha
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	m := &MasterState{
		n:                n,
		round:            1,
		alpha:            alpha,
		capScale:         o.capScale,
		costs:            make([]float64, n),
		costSeen:         make([]bool, n),
		decisions:        make([]float64, n),
		decSeen:          make([]bool, n),
		alive:            alive,
		aliveCount:       n,
		abandoned:        make(map[int]bool),
		pendingCosts:     make(map[int][]CostReport),
		pendingDecisions: make(map[int][]DecisionReport),
		rec:              NewRecorder(o.metrics),
	}
	return m, nil
}

// Round returns the round the master is currently coordinating.
func (m *MasterState) Round() int { return m.round }

// Alpha returns the current step size alpha_t.
func (m *MasterState) Alpha() float64 { return m.alpha }

// Alive reports whether worker id is still part of the deployment
// (out-of-range ids are dead).
func (m *MasterState) Alive(id int) bool {
	return id >= 0 && id < m.n && m.alive[id]
}

// AliveCount returns the current number of surviving workers.
func (m *MasterState) AliveCount() int { return m.aliveCount }

// Survivors lists the surviving worker ids in ascending order.
func (m *MasterState) Survivors() []int {
	out := make([]int, 0, m.aliveCount)
	for i, ok := range m.alive {
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// Missing lists the workers whose report the master is currently
// waiting for: unseen costs while collecting costs, unseen
// non-straggler decisions while collecting decisions. The resilient
// runner evicts exactly this set when a collection deadline expires.
func (m *MasterState) Missing() []int {
	var out []int
	for i, ok := range m.alive {
		if !ok {
			continue
		}
		if m.inDecide && i != m.straggler && !m.decSeen[i] || !m.inDecide && !m.costSeen[i] {
			out = append(out, i)
		}
	}
	return out
}

// Evict removes worker id from the deployment (fail-stop: it never
// returns). The call is idempotent; evicting an unknown worker is an
// error. A report already counted from the evicted worker in the
// current phase is retracted, so the straggler pick and the remainder
// never include a dead worker's values; if the eviction unblocks the
// phase, the returned outputs carry the unlocked messages, exactly as
// if the last report had arrived.
//
// A straggler lost before its assignment follows a fixed rule. Evicted
// while its round collects decisions (its Coordinate could not be
// delivered), the round is abandoned: no remainder, no cap, and the
// round's decisions are dropped when they arrive; the next completed
// round's remainder restores the simplex. Evicted as the very next
// action after its StragglerAssign was emitted (the assignment could
// not be delivered), the round stays complete, but its rule-(7) cap is
// re-evaluated at the survivor count, which no longer includes it.
func (m *MasterState) Evict(id int) ([]MasterOutput, error) {
	if id < 0 || id >= m.n {
		return nil, fmt.Errorf("core: evict unknown worker %d", id)
	}
	last := m.assigned
	m.assigned = assignment{}
	if !m.alive[id] {
		return nil, nil
	}
	m.alive[id] = false
	m.aliveCount--
	if last.valid && last.straggler == id {
		m.alpha = last.alpha
		m.capAlpha(last.xs)
	}
	switch {
	case !m.inDecide:
		if m.costSeen[id] {
			m.costSeen[id] = false
			m.collected--
		}
		return m.maybeCoordinate()
	case id == m.straggler:
		m.abandoned[m.round] = true
		m.nextRound()
		return drain(m, m.pendingCosts, m.routeCost)
	default:
		if m.decSeen[id] {
			m.decSeen[id] = false
			m.decided--
		}
		return m.maybeAssign()
	}
}

// HandleCost ingests a worker's CostReport. When the report completes the
// current round's cost collection, the returned outputs contain the
// Coordinate broadcast (and possibly further outputs unlocked by buffered
// messages). Reports from evicted workers are dropped.
func (m *MasterState) HandleCost(r CostReport) ([]MasterOutput, error) {
	m.assigned = assignment{}
	if r.From < 0 || r.From >= m.n {
		return nil, fmt.Errorf("core: cost report from unknown worker %d", r.From)
	}
	return m.routeCost(r)
}

func (m *MasterState) routeCost(r CostReport) ([]MasterOutput, error) {
	switch {
	case !m.alive[r.From]:
		return nil, nil
	case r.Round < m.round:
		return nil, fmt.Errorf("core: stale cost report for round %d (master at round %d)", r.Round, m.round)
	case r.Round > m.round || m.inDecide:
		m.pendingCosts[r.Round] = append(m.pendingCosts[r.Round], r)
		return nil, nil
	}
	if m.costSeen[r.From] {
		return nil, fmt.Errorf("core: duplicate cost report from worker %d in round %d", r.From, m.round)
	}
	m.costSeen[r.From] = true
	m.costs[r.From] = r.Cost
	m.rec.RecordWorkerCost(r.From, r.Cost)
	m.collected++
	return m.maybeCoordinate()
}

// maybeCoordinate closes the cost collection once every survivor has
// reported: it identifies the straggler among the survivors, lowest
// index on ties (Algorithm 1, lines 9-12), and broadcasts the
// Coordinate.
func (m *MasterState) maybeCoordinate() ([]MasterOutput, error) {
	if m.aliveCount == 0 || m.collected < m.aliveCount {
		return nil, nil
	}
	m.straggler = -1
	for i, ok := range m.alive {
		if ok && (m.straggler == -1 || m.costs[i] > m.costs[m.straggler]) {
			m.straggler = i
		}
	}
	m.inDecide = true
	m.decided = 0
	for i := range m.decSeen {
		m.decSeen[i] = false
	}
	out := []MasterOutput{{Coordinate: &Coordinate{
		Round:      m.round,
		GlobalCost: m.costs[m.straggler],
		Alpha:      m.alpha,
		Straggler:  m.straggler,
	}}}
	more, err := drain(m, m.pendingDecisions, m.routeDecision)
	if err == nil && len(more) == 0 {
		// A lone survivor has no decisions to wait for: it keeps the
		// whole load.
		more, err = m.maybeAssign()
	}
	if err != nil {
		return nil, err
	}
	return append(out, more...), nil
}

// HandleDecision ingests a non-straggler's DecisionReport. When it
// completes the round, the outputs contain the StragglerAssign message
// (and possibly further outputs unlocked by buffered cost reports).
// Decisions from evicted workers, and for abandoned rounds, are dropped.
func (m *MasterState) HandleDecision(r DecisionReport) ([]MasterOutput, error) {
	m.assigned = assignment{}
	if r.From < 0 || r.From >= m.n {
		return nil, fmt.Errorf("core: decision report from unknown worker %d", r.From)
	}
	return m.routeDecision(r)
}

func (m *MasterState) routeDecision(r DecisionReport) ([]MasterOutput, error) {
	switch {
	case !m.alive[r.From] || m.abandoned[r.Round]:
		return nil, nil
	case r.Round < m.round:
		return nil, fmt.Errorf("core: stale decision report for round %d (master at round %d)", r.Round, m.round)
	case r.Round > m.round || !m.inDecide:
		m.pendingDecisions[r.Round] = append(m.pendingDecisions[r.Round], r)
		return nil, nil
	}
	if r.From == m.straggler {
		return nil, fmt.Errorf("core: straggler %d must not send a decision in round %d", r.From, m.round)
	}
	if m.decSeen[r.From] {
		return nil, fmt.Errorf("core: duplicate decision from worker %d in round %d", r.From, m.round)
	}
	m.decSeen[r.From] = true
	m.decisions[r.From] = r.Next
	m.decided++
	return m.maybeAssign()
}

// maybeAssign closes the decision collection once every surviving
// non-straggler has decided: it computes the straggler's remainder
// (Algorithm 1, line 14), shrinks the step size (line 16) and advances
// to the next round.
func (m *MasterState) maybeAssign() ([]MasterOutput, error) {
	if !m.inDecide || m.decided < m.aliveCount-1 {
		return nil, nil
	}
	// Sum in worker-id order: float addition is not associative, so the
	// arrival order must not leak into the remainder.
	var taken float64
	for i, seen := range m.decSeen {
		if seen {
			taken += m.decisions[i]
		}
	}
	xs := 1 - taken
	if xs < 0 { // floating-point dust; feasibility is guaranteed by the alpha invariant
		xs = 0
	}
	m.assigned = assignment{valid: true, straggler: m.straggler, xs: xs, alpha: m.alpha}
	m.capAlpha(xs)
	out := []MasterOutput{{Assign: &StragglerAssign{
		Round: m.round,
		To:    m.straggler,
		Next:  xs,
	}}}
	m.rec.RecordRound(m.straggler, m.costs[m.straggler], m.alpha)
	m.nextRound()
	more, err := drain(m, m.pendingCosts, m.routeCost)
	if err != nil {
		return nil, err
	}
	return append(out, more...), nil
}

// capAlpha applies the rule-(7) cap for remainder xs at the survivor
// count.
func (m *MasterState) capAlpha(xs float64) {
	if xs > drainEps { // a fully drained straggler degenerates the cap; see balancer.go
		if c := AlphaCapScaled(xs, m.aliveCount, m.capScale); c < m.alpha {
			m.alpha = c
		}
	}
}

// nextRound resets the collection state for the next round.
func (m *MasterState) nextRound() {
	m.round++
	m.inDecide = false
	m.collected = 0
	for i := range m.costSeen {
		m.costSeen[i] = false
	}
}

// drain re-routes the reports buffered for the master's current round.
func drain[R any](m *MasterState, pending map[int][]R, route func(R) ([]MasterOutput, error)) ([]MasterOutput, error) {
	reports := pending[m.round]
	delete(pending, m.round)
	var out []MasterOutput
	for _, r := range reports {
		o, err := route(r)
		if err != nil {
			return nil, err
		}
		out = append(out, o...)
	}
	return out, nil
}
