package main

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histSub is the number of linear sub-buckets per power-of-two octave.
// A bucket spans at most 1/histSub of its lower bound, so a quantile
// read back from the histogram (interpolated linearly inside its bucket)
// is within 1/64 ≈ 1.6% of the recorded value.
const histSub = 64

// histBuckets covers 0 ns up to 2^41 ns (about 36 minutes); larger
// values land in the last bucket.
const histBuckets = (40-6+1)*histSub + histSub

// Hist is a fixed-memory log-linear latency histogram in nanoseconds.
// Its memory (about 18 KiB) does not grow with the number of samples,
// so a long run's peak RSS measures the program, not the benchmark.
// Record is safe for concurrent use.
type Hist struct {
	counts [histBuckets]atomic.Uint64
	n      atomic.Uint64
}

// bucketOf maps a value to its bucket: values below histSub get one
// bucket each, larger ones one of histSub equal slices of their octave.
func bucketOf(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	e := bits.Len64(ns) - 7 // shift that leaves the top 7 bits (64..127)
	i := (e+1)*histSub + int(ns>>uint(e)) - histSub
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketRange is the inverse of bucketOf: the bucket's lower bound and
// width in nanoseconds.
func bucketRange(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	e := uint(i/histSub - 1)
	m := uint64(i%histSub + histSub)
	return float64(m << e), float64(uint64(1) << e)
}

// Record adds one duration.
func (h *Hist) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(uint64(d))].Add(1)
	h.n.Add(1)
}

// Count is the number of recorded samples.
func (h *Hist) Count() uint64 { return h.n.Load() }

// Quantile returns the q-quantile (0 < q < 1) in nanoseconds,
// interpolated linearly by rank inside its bucket; 0 when empty.
func (h *Hist) Quantile(q float64) float64 {
	total := h.n.Load()
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if cum+c >= target {
			lo, w := bucketRange(i)
			return lo + w*(target-cum)/c
		}
		cum += c
	}
	lo, w := bucketRange(histBuckets - 1)
	return lo + w
}

// Merge adds every sample of o into h.
func (h *Hist) Merge(o *Hist) {
	for i := range o.counts {
		if c := o.counts[i].Load(); c != 0 {
			h.counts[i].Add(c)
		}
	}
	h.n.Add(o.n.Load())
}

// Windows splits a timed window into equal sub-windows with one
// histogram each. A run reports the median over sub-windows of each
// statistic, so a stall of the shared host that lasts a second moves
// one sub-window rather than the run's result.
type Windows struct {
	start time.Time
	width time.Duration
	hs    []Hist
}

// NewWindows splits total, starting at start, into n sub-windows.
func NewWindows(start time.Time, total time.Duration, n int) *Windows {
	return &Windows{start: start, width: total / time.Duration(n), hs: make([]Hist, n)}
}

// Record adds an op that ended at end and took d; ops ending past the
// window count in the last sub-window.
func (w *Windows) Record(end time.Time, d time.Duration) {
	i := int(end.Sub(w.start) / w.width)
	i = min(max(i, 0), len(w.hs)-1)
	w.hs[i].Record(d)
}

// Quantile is the median over sub-windows of each one's q-quantile.
func (w *Windows) Quantile(q float64) float64 {
	qs := make([]float64, 0, len(w.hs))
	for i := range w.hs {
		if w.hs[i].Count() > 0 {
			qs = append(qs, w.hs[i].Quantile(q))
		}
	}
	return median(qs)
}

// Rate is the median over sub-windows of ops per second.
func (w *Windows) Rate() float64 {
	rs := make([]float64, len(w.hs))
	for i := range w.hs {
		rs[i] = float64(w.hs[i].Count()) / w.width.Seconds()
	}
	return median(rs)
}

// Count is the number of recorded ops.
func (w *Windows) Count() uint64 {
	var n uint64
	for i := range w.hs {
		n += w.hs[i].Count()
	}
	return n
}
