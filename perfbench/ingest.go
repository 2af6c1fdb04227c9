package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dolbie/internal/dispatch"
	"dolbie/internal/metrics"
)

const (
	// ingestWorkers is the dispatcher's worker count N.
	ingestWorkers = 8
	// ingestWarm is the fixed number of requests of set-up's warm-up.
	ingestWarm = 8000
	// scrapeEvery is the request cadence of one GET /metrics.
	scrapeEvery = 10000
	// ingestSample traces 1 in ingestSample requests per client.
	ingestSample = 16
	// traceHeader carries a traced request's span id to the handler
	// wrapper.
	traceHeader = "X-Perfbench-Trace"
)

// routedMark is the part of every 200 answer a routed verdict carries.
var routedMark = []byte(`"outcome":"routed"`)

// ingestRig is one Live engine behind a loopback HTTP server, with its
// keep-alive clients.
type ingestRig struct {
	d       *dispatch.Dispatcher
	live    *dispatch.Live
	srv     *http.Server
	served  chan error
	base    string
	clients []*ingestClient
	// sent counts requests across clients for the scrape cadence.
	sent atomic.Int64
	// tracer is non-nil only in the traced phase.
	tracer atomic.Pointer[Tracer]
}

// ingestClient is one closed-loop client with its own connection. Only
// its goroutine touches it while a phase runs.
type ingestClient struct {
	hc    *http.Client
	urls  []string
	pos   int
	body  bytes.Buffer
	n     int64
	tally ingestTally
}

// ingestTally counts requests by outcome.
type ingestTally struct {
	sent, ok, failed, scrapes, scrapeFailed int64
}

func (t ingestTally) minus(o ingestTally) ingestTally {
	return ingestTally{t.sent - o.sent, t.ok - o.ok, t.failed - o.failed, t.scrapes - o.scrapes, t.scrapeFailed - o.scrapeFailed}
}

func (r *ingestRig) tally() ingestTally {
	var t ingestTally
	for _, c := range r.clients {
		t.sent += c.tally.sent
		t.ok += c.tally.ok
		t.failed += c.tally.failed
		t.scrapes += c.tally.scrapes
		t.scrapeFailed += c.tally.scrapeFailed
	}
	return t
}

// traced wraps a handler so a request carrying traceHeader records a
// child span named name under the client's span.
func (r *ingestRig) traced(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		t := r.tracer.Load()
		v := req.Header.Get(traceHeader)
		if t == nil || v == "" {
			h.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, req)
		if id, err := strconv.ParseUint(v, 10, 64); err == nil {
			t.Add(id, t.NewID(), id, name, start, time.Now())
		}
	})
}

func newIngestRig(seed int64, nproc int, traceable bool) (*ingestRig, error) {
	reg := metrics.NewRegistry()
	d, err := dispatch.New(dispatch.Config{
		N:        ingestWorkers,
		QueueCap: 1024,
		Shards:   nproc,
		Shed:     dispatch.ShedReject,
		Metrics:  reg,
	})
	if err != nil {
		return nil, err
	}
	// Workers this fast serve a request in well under a nanosecond of
	// modelled time, so they never sleep and no queue ever fills.
	speeds := make([]float64, ingestWorkers)
	for i := range speeds {
		speeds[i] = 1e12
	}
	live, err := dispatch.NewLive(dispatch.LiveConfig{Dispatcher: d, Speeds: speeds, Metrics: reg})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		live.Close()
		return nil, err
	}
	r := &ingestRig{d: d, live: live, served: make(chan error, 1), base: "http://" + ln.Addr().String()}
	mux := http.NewServeMux()
	ingest, scrape := live.Handler(), reg.Handler()
	if traceable {
		ingest, scrape = r.traced("http.handler", ingest), r.traced("metrics.scrape", scrape)
	}
	mux.Handle("/ingest", ingest)
	mux.Handle("/metrics", scrape)
	r.srv = &http.Server{Handler: mux}
	go func() { r.served <- r.srv.Serve(ln) }()

	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < nproc; c++ {
		cl := &ingestClient{
			hc: &http.Client{Transport: &http.Transport{
				Proxy:               nil,
				MaxIdleConns:        1,
				MaxIdleConnsPerHost: 1,
				MaxConnsPerHost:     1,
				DisableCompression:  true,
			}},
		}
		// Seeded demands, recycled: the inputs take fixed memory however
		// long the run.
		for i := 0; i < 256; i++ {
			cl.urls = append(cl.urls, r.base+"/ingest?demand="+strconv.FormatFloat(0.5+rng.Float64(), 'f', 4, 64))
		}
		r.clients = append(r.clients, cl)
	}
	return r, nil
}

// do sends one POST /ingest and returns its round-trip time and
// whether the answer was a routed 200.
func (c *ingestClient) do(r *ingestRig, tracer *Tracer) (time.Duration, bool) {
	req, err := http.NewRequest(http.MethodPost, c.urls[c.pos], nil)
	c.pos = (c.pos + 1) % len(c.urls)
	if err != nil {
		return 0, false
	}
	var id uint64
	c.n++
	if tracer != nil && c.n%ingestSample == 0 {
		id = tracer.NewID()
		req.Header.Set(traceHeader, strconv.FormatUint(id, 10))
	}
	start := time.Now()
	ok := c.roundTrip(req, routedMark)
	end := time.Now()
	if id != 0 {
		tracer.Add(id, id, 0, "client.request", start, end)
	}
	return end.Sub(start), ok
}

// scrape sends one GET /metrics and checks it carries the dispatcher's
// arrivals counter.
func (c *ingestClient) scrape(r *ingestRig, tracer *Tracer) bool {
	req, err := http.NewRequest(http.MethodGet, r.base+"/metrics", nil)
	if err != nil {
		return false
	}
	var id uint64
	if tracer != nil {
		id = tracer.NewID()
		req.Header.Set(traceHeader, strconv.FormatUint(id, 10))
	}
	start := time.Now()
	ok := c.roundTrip(req, []byte("dolbie_dispatch_arrivals_total"))
	if id != 0 {
		tracer.Add(id, id, 0, "client.scrape", start, time.Now())
	}
	return ok
}

// roundTrip performs req and reports a 200 whose body contains want.
func (c *ingestClient) roundTrip(req *http.Request, want []byte) bool {
	resp, err := c.hc.Do(req)
	if err != nil {
		return false
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	return err == nil && resp.StatusCode == http.StatusOK && bytes.Contains(c.body.Bytes(), want)
}

// phase runs every client closed loop, each for count requests (when
// count > 0) or until the deadline, recording round trips into ops. It
// returns the wall time the phase took.
func (r *ingestRig) phase(count int64, until time.Time, ops *Windows, tracer *Tracer) time.Duration {
	r.tracer.Store(tracer)
	defer r.tracer.Store(nil)
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range r.clients {
		wg.Add(1)
		go func(c *ingestClient) {
			defer wg.Done()
			for i := int64(0); count == 0 || i < count; i++ {
				d, ok := c.do(r, tracer)
				c.tally.sent++
				if ok {
					c.tally.ok++
				} else {
					c.tally.failed++
				}
				end := time.Now()
				if ops != nil {
					ops.Record(end, d)
				}
				if r.sent.Add(1)%scrapeEvery == 0 {
					c.tally.scrapes++
					if !c.scrape(r, tracer) {
						c.tally.scrapeFailed++
					}
				}
				if count == 0 && end.After(until) {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// close drains the engine gracefully, applies the data-plane gates, and
// stops the server, the engine and the clients.
func (r *ingestRig) close(out *outcome) error {
	all := r.tally()
	t := r.d.Totals()
	var routed int64
	for _, x := range t.Routed {
		routed += x
	}
	out.gate(t.Arrivals == routed+t.Shed+t.Blocked, "conservation: arrivals %d != routed %d + shed %d + blocked %d", t.Arrivals, routed, t.Shed, t.Blocked)
	out.gate(t.Arrivals == all.sent, "dispatcher counted %d arrivals, the clients sent %d", t.Arrivals, all.sent)
	out.gate(routed == all.ok, "dispatcher routed %d, the clients saw %d routed answers", routed, all.ok)
	out.gate(t.Shed == 0 && t.Blocked == 0, "refused admissions: shed %d, blocked %d", t.Shed, t.Blocked)
	out.gate(all.scrapeFailed == 0, "%d of %d scrapes failed", all.scrapeFailed, all.scrapes)
	r.live.BeginDrain()
	idle := r.live.WaitIdle(10 * time.Second)
	t = r.d.Totals()
	out.gate(idle && t.Completed == routed && r.d.Depth() == 0, "after the drain: completed %d of %d routed, depth %d", t.Completed, routed, r.d.Depth())
	for _, c := range r.clients {
		c.hc.CloseIdleConnections()
	}
	// Shutdown waits for every handler to return, so the handler
	// wrapper's last spans are recorded before the spans are read.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := r.srv.Shutdown(ctx)
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	r.live.Close()
	if err != nil {
		return fmt.Errorf("stop server: %w", err)
	}
	return nil
}

func runIngest(env *runEnv) (*outcome, error) {
	nproc := runtime.GOMAXPROCS(0)
	out := &outcome{metrics: map[string]float64{}}
	var (
		rig    *ingestRig
		setups []float64
	)
	for k := 0; k < setupRepeats; k++ {
		if rig != nil {
			if err := rig.close(out); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		r, err := newIngestRig(env.seed, nproc, env.trace)
		if err != nil {
			return nil, err
		}
		r.phase(ingestWarm/int64(nproc), time.Time{}, nil, nil)
		setups = append(setups, time.Since(t0).Seconds())
		rig = r
	}
	before := rig.tally()
	var ops, untraced, traced *Windows
	var elapsed time.Duration
	if env.trace {
		out.tracer = NewTracer(1 << 19)
		half := env.seconds / 2
		untraced = NewWindows(time.Now(), half, subWindows/2)
		rig.phase(0, time.Now().Add(half), untraced, nil)
		traced = NewWindows(time.Now(), env.seconds-half, subWindows/2)
		rig.phase(0, time.Now().Add(env.seconds-half), traced, out.tracer)
	} else {
		ops = NewWindows(time.Now(), env.seconds, subWindows)
		elapsed = rig.phase(0, time.Now().Add(env.seconds), ops, nil)
	}
	w := rig.tally().minus(before)
	out.attempted = w.sent
	out.failed = w.failed
	if err := rig.close(out); err != nil {
		return nil, err
	}

	if env.trace {
		l := Analyze(out.tracer.Spans())
		m := layerMetrics()
		m["http.handler_us"] = l.SelfP50("http.handler") / 1e3
		m["http.transport_us"] = l.SelfP50("client.request") / 1e3
		m["metrics.scrape_us"] = l.SelfP50("metrics.scrape") / 1e3
		lag := new(Hist)
		for _, s := range rig.live.CompletionLatencies() {
			lag.Record(time.Duration(s * 1e9))
		}
		m["live.complete_lag_us"] = lag.Quantile(0.5) / 1e3
		m["trace.overhead_p50_pct"] = overheadPct(untraced, traced)
		out.metrics = m
		return out, nil
	}
	opMetrics(out.metrics, ops)
	// Every answer is a routed 200, or the run fails.
	out.metrics["work_per_s"] = ops.Rate()
	out.metrics["setup_s"] = median(setups)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	out.metrics["peak_rss_mb"] = rss
	fmt.Fprintf(env.log, "ingest: %d clients, %d requests and %d scrapes in %.3fs\n",
		nproc, ops.Count(), w.scrapes, elapsed.Seconds())
	return out, nil
}
