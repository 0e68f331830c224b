package obs

import (
	"time"

	"contender/internal/sim"
)

// SimTracer bridges the simulator's executor tracer (sim.Tracer) into
// the span model: query admissions become sim.query SpanBegins, stage
// transitions become sim.stage Points, and completions become
// sim.query SpanEnds whose Dur is the *virtual* query latency
// (simulated seconds scaled to time.Duration) and whose Value is the
// virtual completion time. Because the simulator is deterministic,
// bridged events are fully reproducible and safe for golden logs.
//
// The bridge tracks per-stream admission times and is not safe for
// concurrent use — matching the sim.Engine it observes, which calls
// its tracer inline from a single goroutine.
type SimTracer struct {
	o     Sink
	start map[int]float64 // stream -> virtual admission time
}

// NewSimTracer returns a bridge forwarding to o. An empty o yields a
// bridge that drops everything (still usable, never nil-dereferences).
func NewSimTracer(o Sink) *SimTracer {
	return &SimTracer{o: o, start: map[int]float64{}}
}

// Event implements sim.Tracer.
func (t *SimTracer) Event(ev sim.TraceEvent) {
	if !t.o.On() {
		return
	}
	switch ev.Kind {
	case sim.TraceStart:
		t.start[ev.Stream] = ev.Time
		t.o.Event(Event{
			Kind:     SpanBegin,
			Span:     SpanSimQuery,
			Template: ev.TemplateID,
			Stream:   ev.Stream,
			Value:    ev.Time,
		})
	case sim.TraceStage:
		t.o.Event(Event{
			Kind:     Point,
			Span:     PointSimStage,
			Key:      stageKey(ev),
			Template: ev.TemplateID,
			Stream:   ev.Stream,
			Value:    ev.Time,
		})
	case sim.TraceComplete:
		begin, ok := t.start[ev.Stream]
		if ok {
			delete(t.start, ev.Stream)
		}
		out := Event{
			Kind:     SpanEnd,
			Span:     SpanSimQuery,
			Template: ev.TemplateID,
			Stream:   ev.Stream,
			Value:    ev.Time,
		}
		if ok {
			out.Dur = time.Duration((ev.Time - begin) * float64(time.Second))
		}
		t.o.Event(out)
	}
}

func stageKey(ev sim.TraceEvent) string {
	if ev.Table != "" {
		return ev.Stage.String() + "(" + ev.Table + ")"
	}
	return ev.Stage.String()
}
