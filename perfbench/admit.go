package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dolbie/internal/dispatch"
)

const (
	// admitWorkers is the dispatcher's worker count N.
	admitWorkers = 8
	// admitBlock is the batch width and the number of single Submit
	// calls per cycle; a cycle admits 2*admitBlock requests.
	admitBlock = 64
	// admitWarmCycles is each goroutine's fixed warm-up inside set-up.
	admitWarmCycles = 10000
	// retuneEvery is goroutine 0's cadence, in cycles, of one SetWeights
	// (a round retune) plus one Totals (a snapshot) inside its cycle.
	retuneEvery = 256
	// admitSample traces 1 in admitSample cycles per goroutine.
	admitSample = 256
	// setupRepeats is how many times a data-plane run sets up; set-up
	// time is their median and the last set-up is the one measured.
	setupRepeats = 3
)

// admitRig is one dispatcher with its seeded inputs.
type admitRig struct {
	d       *dispatch.Dispatcher
	weights [][]float64
	ids     atomic.Int64
	epoch   time.Time
	subs    []*admitter
}

// admitter is one load-generating goroutine's state. Only its own
// goroutine touches it while a phase runs.
type admitter struct {
	g        int
	sub      *dispatch.Submitter
	reqs     []dispatch.Request
	verdicts []dispatch.Verdict
	demands  []float64
	pos      int
	counts   [admitWorkers]int
	cycles   int64
	retunes  int
	tally    admitTally
}

// admitTally counts requests by what became of them.
type admitTally struct {
	submitted, batched, refused, unfinished int64
}

func (t admitTally) minus(o admitTally) admitTally {
	return admitTally{t.submitted - o.submitted, t.batched - o.batched, t.refused - o.refused, t.unfinished - o.unfinished}
}

// tally sums every admitter's counts; call only between phases.
func (r *admitRig) tally() admitTally {
	var t admitTally
	for _, a := range r.subs {
		t.submitted += a.tally.submitted
		t.batched += a.tally.batched
		t.refused += a.tally.refused
		t.unfinished += a.tally.unfinished
	}
	return t
}

func newAdmitRig(seed int64, nproc int) (*admitRig, error) {
	d, err := dispatch.New(dispatch.Config{
		N: admitWorkers,
		// Each goroutine has at most 2*admitBlock requests in flight, so
		// this cap is never reached and no request is refused.
		QueueCap:  4 * admitBlock * nproc,
		Shards:    nproc,
		BatchSize: admitBlock,
		Shed:      dispatch.ShedReject,
	})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	r := &admitRig{d: d, epoch: time.Now()}
	for i := 0; i < 16; i++ {
		w := make([]float64, admitWorkers)
		for j := range w {
			w[j] = 0.5 + rng.Float64()
		}
		r.weights = append(r.weights, w)
	}
	for g := 0; g < nproc; g++ {
		a := &admitter{
			g:        g,
			sub:      d.NewSubmitter(),
			reqs:     make([]dispatch.Request, 2*admitBlock),
			verdicts: make([]dispatch.Verdict, 0, 2*admitBlock),
			demands:  make([]float64, 1024),
		}
		for i := range a.demands {
			a.demands[i] = 0.5 + rng.Float64()
		}
		r.subs = append(r.subs, a)
	}
	return r, nil
}

// cycle runs one op: SubmitBatch of one block, one block of single
// Submit calls, then CompleteBatch of everything admitted; goroutine 0
// adds a retune and a snapshot every retuneEvery cycles. It returns the
// op's duration. With a tracer, a sampled cycle takes timestamps around
// the program's calls only and records them as child spans of one cycle
// span once the cycle has ended, so no span times the tracer or the
// benchmark's own bookkeeping.
func (a *admitter) cycle(r *admitRig, tracer *Tracer) time.Duration {
	base := r.ids.Add(2*admitBlock) - 2*admitBlock
	arrival := time.Since(r.epoch).Seconds()
	for i := range a.reqs {
		a.reqs[i] = dispatch.Request{ID: base + int64(i) + 1, Arrival: arrival, Demand: a.demands[a.pos]}
		a.pos = (a.pos + 1) % len(a.demands)
	}
	a.counts = [admitWorkers]int{}
	a.cycles++
	retune := a.g == 0 && a.cycles%retuneEvery == 0
	// Sampled cycles sit halfway between retunes, so they time the
	// plain cycle.
	sampled := tracer != nil && a.cycles%admitSample == admitSample/2
	// A sampled cycle's timestamps: SubmitBatch runs from t0 to s0, the
	// single Submit calls from s0 to s1, CompleteBatch from c0 to c1.
	var s0, s1, c0, c1 time.Time
	t0 := time.Now()
	vs := a.sub.SubmitBatch(a.reqs[:admitBlock], a.verdicts[:0])
	if sampled {
		s0 = time.Now()
	}
	for _, req := range a.reqs[admitBlock:] {
		vs = append(vs, r.d.Submit(req))
	}
	if sampled {
		s1 = time.Now()
	}
	for _, v := range vs {
		if v.Worker < 0 {
			a.tally.refused++
			continue
		}
		a.counts[v.Worker]++
	}
	var completed [admitWorkers]int
	now := time.Since(r.epoch).Seconds()
	if sampled {
		c0 = time.Now()
	}
	for w, c := range a.counts {
		if c > 0 {
			completed[w] = r.d.CompleteBatch(w, c, now)
		}
	}
	if sampled {
		c1 = time.Now()
	}
	for w, c := range a.counts {
		a.tally.unfinished += int64(c - completed[w])
	}
	var r0, r1, r2 time.Time
	if retune {
		r0 = time.Now()
		err := r.d.SetWeights(r.weights[a.retunes%len(r.weights)])
		r1 = time.Now()
		_ = r.d.Totals()
		r2 = time.Now()
		if err != nil {
			panic(err) // the seeded weights are valid by construction
		}
		a.retunes++
	}
	a.verdicts = vs[:0]
	a.tally.submitted += int64(len(a.reqs))
	a.tally.batched += admitBlock
	end := time.Now()
	if sampled {
		id := tracer.NewID()
		tracer.Add(id, id, 0, "admit.cycle", t0, end)
		tracer.Add(id, tracer.NewID(), id, "dispatch.submit_batch", t0, s0)
		tracer.Add(id, tracer.NewID(), id, "dispatch.submit_block", s0, s1)
		tracer.Add(id, tracer.NewID(), id, "dispatch.complete_batch", c0, c1)
	}
	if retune && tracer != nil { // retunes are rare: trace every one
		id := tracer.NewID()
		tracer.Add(id, id, 0, "dispatch.retune", r0, r1)
		tracer.Add(id, tracer.NewID(), 0, "dispatch.snapshot", r1, r2)
	}
	return end.Sub(t0)
}

// phase runs every admitter concurrently, each for cycles cycles (when
// cycles > 0) or until the deadline, recording op times into ops. It
// returns the wall time the phase took.
func (r *admitRig) phase(cycles int64, until time.Time, ops *Windows, tracer *Tracer) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for _, a := range r.subs {
		wg.Add(1)
		go func(a *admitter) {
			defer wg.Done()
			for i := int64(0); cycles == 0 || i < cycles; i++ {
				d := a.cycle(r, tracer)
				end := time.Now()
				if ops != nil {
					ops.Record(end, d)
				}
				if cycles == 0 && end.After(until) {
					return
				}
			}
		}(a)
	}
	wg.Wait()
	return time.Since(start)
}

// check applies the data-plane gates to a rig once its load stopped.
func (r *admitRig) check(out *outcome) {
	all := r.tally()
	t := r.d.Totals()
	var routed int64
	for _, x := range t.Routed {
		routed += x
	}
	out.gate(t.Arrivals == routed+t.Shed+t.Blocked, "conservation: arrivals %d != routed %d + shed %d + blocked %d", t.Arrivals, routed, t.Shed, t.Blocked)
	out.gate(t.Arrivals == all.submitted, "dispatcher counted %d arrivals, the benchmark submitted %d", t.Arrivals, all.submitted)
	out.gate(t.Shed == 0 && t.Blocked == 0 && all.refused == 0, "refused admissions: shed %d, blocked %d", t.Shed, t.Blocked)
	out.gate(all.unfinished == 0, "%d admitted requests were not completed by CompleteBatch", all.unfinished)
	out.gate(t.Completed == routed && r.d.Depth() == 0, "after the drain: completed %d of %d routed, depth %d", t.Completed, routed, r.d.Depth())
	bs := r.d.BatchStats()
	out.gate(bs.Admitted == all.batched, "BatchStats counted %d batched admissions, the benchmark sent %d", bs.Admitted, all.batched)
}

func runAdmit(env *runEnv) (*outcome, error) {
	nproc := runtime.GOMAXPROCS(0)
	out := &outcome{metrics: map[string]float64{}}
	var (
		rig    *admitRig
		setups []float64
	)
	for k := 0; k < setupRepeats; k++ {
		if rig != nil {
			rig.check(out)
		}
		runtime.GC()
		t0 := time.Now()
		r, err := newAdmitRig(env.seed, nproc)
		if err != nil {
			return nil, err
		}
		r.phase(admitWarmCycles, time.Time{}, nil, nil)
		setups = append(setups, time.Since(t0).Seconds())
		rig = r
	}
	before := rig.tally()
	if env.trace {
		out.tracer = NewTracer(1 << 19)
		half := env.seconds / 2
		untraced := NewWindows(time.Now(), half, subWindows/2)
		rig.phase(0, time.Now().Add(half), untraced, nil)
		traced := NewWindows(time.Now(), env.seconds-half, subWindows/2)
		rig.phase(0, time.Now().Add(env.seconds-half), traced, out.tracer)
		l := Analyze(out.tracer.Spans())
		m := layerMetrics()
		// One span covers the cycle's single Submit calls, so the clock
		// is read twice per admitBlock calls rather than per call.
		m["dispatch.submit_ns"] = l.SelfP50("dispatch.submit_block") / admitBlock
		m["dispatch.batch_us"] = l.SelfP50("dispatch.submit_batch") / 1e3
		m["dispatch.complete_us"] = l.SelfP50("dispatch.complete_batch") / 1e3
		m["dispatch.retune_us"] = l.SelfP50("dispatch.retune") / 1e3
		m["dispatch.snapshot_us"] = l.SelfP50("dispatch.snapshot") / 1e3
		bs := rig.d.BatchStats()
		m["dispatch.affinity_hit_frac"] = float64(bs.AffinityHits) / float64(bs.AffinityHits+bs.AffinityMisses)
		m["trace.overhead_p50_pct"] = overheadPct(untraced, traced)
		out.metrics = m
		// The child spans plus the cycle's own bookkeeping add up to the
		// sampled cycle, which should take about as long as an untraced
		// one.
		fmt.Fprintf(env.log, "trace check: admit.cycle p50 %.2f us traced (%.2f us untraced) = SubmitBatch %.2f us + %d x Submit %.1f ns + CompleteBatch %.2f us + cycle self %.2f us\n",
			l.TotalP50("admit.cycle")/1e3, untraced.Quantile(0.5)/1e3, m["dispatch.batch_us"], admitBlock, m["dispatch.submit_ns"],
			m["dispatch.complete_us"], l.SelfP50("admit.cycle")/1e3)
	} else {
		ops := NewWindows(time.Now(), env.seconds, subWindows)
		elapsed := rig.phase(0, time.Now().Add(env.seconds), ops, nil)
		opMetrics(out.metrics, ops)
		// Every cycle admits all of its requests, or the run fails.
		out.metrics["work_per_s"] = ops.Rate() * 2 * admitBlock
		out.metrics["setup_s"] = median(setups)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		out.metrics["peak_rss_mb"] = rss
		fmt.Fprintf(env.log, "admit: %d goroutines, %d cycles of %d requests in %.3fs\n", nproc, ops.Count(), 2*admitBlock, elapsed.Seconds())
	}
	w := rig.tally().minus(before)
	out.attempted = w.submitted
	out.failed = w.refused + w.unfinished
	rig.check(out)
	return out, nil
}
