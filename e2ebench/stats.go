package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a tail percentile resting on fewer samples is noise.
const minTail = 10

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. An empty xs yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// percentile is one reported latency percentile with the sample count it
// rests on.
type percentile struct {
	Q     float64 // 0.5, 0.9, ...
	Value float64
	N     int
	// OK is false when fewer than minTail samples lie beyond Q: the value is
	// then withheld rather than reported.
	OK bool
}

// tailOK reports whether n samples leave at least minTail beyond the
// q-quantile.
func tailOK(n int, q float64) bool {
	return float64(n)*(1-q) >= minTail-1e-9
}

// percentileOf computes the q-quantile of xs under the ten-samples-beyond
// rule.
func percentileOf(xs []float64, q float64) percentile {
	p := percentile{Q: q, N: len(xs), OK: tailOK(len(xs), q)}
	if p.OK {
		p.Value = quantile(xs, q)
	}
	return p
}

// highestTail returns the highest of the conventional tail percentiles
// (p99.9, p99, p90, p50) that has at least minTail samples beyond it, or a
// not-OK percentile when even the median lacks them.
func highestTail(xs []float64) percentile {
	for _, q := range []float64{0.999, 0.99, 0.9, 0.5} {
		if p := percentileOf(xs, q); p.OK {
			return p
		}
	}
	return percentile{Q: 0.5, N: len(xs)}
}

// millis converts durations to float milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// tally counts checked operations. A failed operation is one that errored,
// was refused (any non-2xx response, 503 load shedding included) or
// returned output that did not match its reference.
type tally struct {
	Attempted int
	Failed    int
	// Reasons keeps the first few failure messages for the report.
	Reasons []string
}

// maxReasons bounds the failure messages a tally keeps.
const maxReasons = 8

// check records one operation; ok false counts it as failed with the given
// reason.
func (t *tally) check(ok bool, reason string) {
	t.Attempted++
	if ok {
		return
	}
	t.Failed++
	if len(t.Reasons) < maxReasons {
		t.Reasons = append(t.Reasons, reason)
	}
}

// add folds another tally into t.
func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Failed += o.Failed
	for _, r := range o.Reasons {
		if len(t.Reasons) < maxReasons {
			t.Reasons = append(t.Reasons, r)
		}
	}
}

// errorRate is failed over attempted; 0 when nothing was attempted.
func (t tally) errorRate() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return float64(t.Failed) / float64(t.Attempted)
}

// httpOK reports whether an HTTP status counts as a successful operation:
// any 2xx. A 503 (shed load) is a failure like any other non-2xx.
func httpOK(code int) bool { return code >= 200 && code < 300 }
