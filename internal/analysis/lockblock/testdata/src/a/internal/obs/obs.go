// Package obs is a minimal mock of the real observability surface for
// the lockblock golden tests: an Observer interface plus the
// panic-isolating Sink that instrumented code holds.
package obs

type Event struct {
	Name string
}

type Observer interface {
	Event(e Event)
}

type Sink struct{ o Observer }

func (s Sink) Event(e Event) {
	if s.o != nil {
		s.o.Event(e)
	}
}
