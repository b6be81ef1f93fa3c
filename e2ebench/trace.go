package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// layer's public function. Parent is the id of the span that caused it (0
// for the root of an iteration).
type span struct {
	ID, Parent int
	Layer      string
	Start, End time.Duration // offsets from the tracer's origin
}

// tracer keeps spans and per-layer counts in memory; they are aggregated
// when the run ends. A nil *tracer records nothing, so the daemon client
// shares one code path between traced and untraced iterations.
type tracer struct {
	origin time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), counts: map[string]float64{}}
}

// active is an open span; end closes it.
type active struct {
	t     *tracer
	id    int
	span  span
	start time.Time
}

// begin opens a span for layer under parent.
func (t *tracer) begin(parent int, layer string) *active {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{}) // reserve the id
	t.mu.Unlock()
	now := time.Now()
	return &active{t: t, id: id, span: span{ID: id, Parent: parent, Layer: layer, Start: now.Sub(t.origin)}, start: now}
}

// ID is the span's id, the parent for calls it causes; 0 for a nil span.
func (a *active) ID() int {
	if a == nil {
		return 0
	}
	return a.id
}

// end closes the span and returns its duration.
func (a *active) end() time.Duration {
	if a == nil {
		return 0
	}
	now := time.Now()
	a.span.End = now.Sub(a.t.origin)
	a.t.mu.Lock()
	a.t.spans[a.id-1] = a.span
	a.t.mu.Unlock()
	return now.Sub(a.start)
}

// count adds n to a per-layer count.
func (t *tracer) count(name string, n float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// snapshot returns copies of the recorded spans and counts.
func (t *tracer) snapshot() ([]span, map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := append([]span(nil), t.spans...)
	counts := make(map[string]float64, len(t.counts))
	for k, v := range t.counts {
		counts[k] = v
	}
	return spans, counts
}

// layerTime is one layer's aggregated self time and call count.
type layerTime struct {
	Self  time.Duration
	Calls int
}

// selfTimes sums, per layer, each span's self time: its duration minus the
// part of its interval that its child spans cover. Children of one span may
// run in parallel on several workers and overlap; the covered part is the
// union of their intervals (clipped to the parent), never their sum, so a
// parent is not charged twice for the same instant.
func selfTimes(spans []span) map[string]layerTime {
	children := map[int][]span{}
	for _, s := range spans {
		if s.ID != 0 && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerTime{}
	for _, s := range spans {
		if s.ID == 0 {
			continue // reserved but never closed
		}
		lt := out[s.Layer]
		lt.Self += (s.End - s.Start) - covered(s, children[s.ID])
		lt.Calls++
		out[s.Layer] = lt
	}
	return out
}

// covered is the length of the union of the children's intervals within
// the parent's interval.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < parent.Start {
			lo = parent.Start
		}
		if hi > parent.End {
			hi = parent.End
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			cur, open = v, true
		case v.lo <= cur.hi:
			if v.hi > cur.hi {
				cur.hi = v.hi
			}
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if open {
		total += cur.hi - cur.lo
	}
	return total
}
