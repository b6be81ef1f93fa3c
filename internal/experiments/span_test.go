package experiments

import (
	"context"
	"sync"
	"testing"

	"specsampling/internal/obs"
	"specsampling/internal/workload"
)

// spanSink collects finished spans.
type spanSink struct {
	mu    sync.Mutex
	spans []obs.SpanData
}

func (s *spanSink) SpanEnd(sd *obs.SpanData) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spans = append(s.spans, *sd)
}
func (s *spanSink) Progress(obs.ProgressEvent) {}
func (s *spanSink) Close() error               { return nil }

// TestFig12NativeSpan requires Figure 12's whole-program native run to
// show up in a trace: one "native" span per benchmark, a child of the
// run's "experiment" span, so a trace or a daemon job's events can
// attribute its time.
func TestFig12NativeSpan(t *testing.T) {
	benches := []string{"505.mcf_r", "541.leela_r"}
	r, err := New(Options{Scale: workload.ScaleSmall, Benchmarks: benches})
	if err != nil {
		t.Fatal(err)
	}
	sink := &spanSink{}
	ctx := obs.WithSink(context.Background(), sink)
	if err := r.RunRecorded(ctx, "fig12", NewReport()); err != nil {
		t.Fatal(err)
	}
	var experiment uint64
	for _, sd := range sink.spans {
		if sd.Name == "experiment" {
			experiment = sd.ID
		}
	}
	got := map[string]bool{}
	for _, sd := range sink.spans {
		if sd.Name != "native" {
			continue
		}
		if sd.Parent != experiment {
			t.Errorf("native span parent %d, want the experiment span %d", sd.Parent, experiment)
		}
		for _, a := range sd.Attrs {
			if a.Key == "bench" {
				got[a.Value.(string)] = true
			}
		}
	}
	for _, b := range benches {
		if !got[b] {
			t.Errorf("no native span for %s", b)
		}
	}
}
