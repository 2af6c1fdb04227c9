package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// Span is one timed interval at a layer boundary, recorded by the
// benchmark around a call into the program. Spans of one request or one
// round share Trace; Parent is the ID of the enclosing span (0 for a
// root span).
type Span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in a preallocated in-memory buffer; they are
// analysed and written out once the run ends. Spans beyond the buffer
// are counted as dropped, never grown into. Safe for concurrent use.
type Tracer struct {
	epoch   time.Time
	ids     atomic.Uint64
	spans   []Span
	used    atomic.Int64
	dropped atomic.Int64
}

// NewTracer allocates room for capacity spans.
func NewTracer(capacity int) *Tracer {
	return &Tracer{epoch: time.Now(), spans: make([]Span, capacity)}
}

// NewID returns a fresh span (or trace) identifier; never 0.
func (t *Tracer) NewID() uint64 { return t.ids.Add(1) }

// Add records one finished span.
func (t *Tracer) Add(trace, id, parent uint64, name string, start, end time.Time) {
	i := t.used.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = Span{Trace: trace, ID: id, Parent: parent, Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))}
}

// Spans returns the recorded spans. Call only after every recording
// goroutine has finished.
func (t *Tracer) Spans() []Span {
	n := t.used.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// WriteFile writes the host stamp and then one span per line as JSON.
func (t *Tracer) WriteFile(path string, stamp any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(stamp); err != nil {
		f.Close()
		return err
	}
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Layers holds what the span analysis derives per layer.
type Layers struct {
	// Total is each span name's duration.
	Total map[string]*Hist
	// Self is each span name's self time: its duration minus the time
	// its child spans cover.
	Self map[string]*Hist
	// ChildSum is, per (parent name, child name), the summed duration of
	// that child's spans under each parent span (one sample per parent).
	ChildSum map[[2]string]*Hist
}

// Analyze computes self times and per-parent child sums from the spans.
func Analyze(spans []Span) Layers {
	byID := make(map[uint64]int, len(spans))
	for i, s := range spans {
		byID[s.ID] = i
	}
	children := make(map[uint64]int64, len(spans))
	sums := make(map[uint64]map[string]int64)
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		if _, ok := byID[s.Parent]; !ok {
			continue // the parent was dropped or never closed
		}
		d := s.End - s.Start
		children[s.Parent] += d
		m := sums[s.Parent]
		if m == nil {
			m = make(map[string]int64, 2)
			sums[s.Parent] = m
		}
		m[s.Name] += d
	}
	l := Layers{Total: map[string]*Hist{}, Self: map[string]*Hist{}, ChildSum: map[[2]string]*Hist{}}
	for _, s := range spans {
		t := l.Total[s.Name]
		if t == nil {
			t = new(Hist)
			l.Total[s.Name] = t
		}
		t.Record(time.Duration(s.End - s.Start))
		h := l.Self[s.Name]
		if h == nil {
			h = new(Hist)
			l.Self[s.Name] = h
		}
		h.Record(time.Duration(s.End - s.Start - children[s.ID]))
		for name, d := range sums[s.ID] {
			k := [2]string{s.Name, name}
			h := l.ChildSum[k]
			if h == nil {
				h = new(Hist)
				l.ChildSum[k] = h
			}
			h.Record(time.Duration(d))
		}
	}
	return l
}

// TotalP50 is the median duration of span name in nanoseconds (0 when
// no such span was recorded).
func (l Layers) TotalP50(name string) float64 {
	if h := l.Total[name]; h != nil {
		return h.Quantile(0.5)
	}
	return 0
}

// SelfP50 is the median self time of span name in nanoseconds (0 when
// no such span was recorded).
func (l Layers) SelfP50(name string) float64 {
	if h := l.Self[name]; h != nil {
		return h.Quantile(0.5)
	}
	return 0
}

// ChildP50 is the median, over parent spans, of the summed child time.
func (l Layers) ChildP50(parent, child string) float64 {
	if h := l.ChildSum[[2]string{parent, child}]; h != nil {
		return h.Quantile(0.5)
	}
	return 0
}

// spanFile names the span dump of one traced run inside the build
// directory, which the repository ignores.
func spanFile(buildDir, workload string, seed int64) string {
	return filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
}
