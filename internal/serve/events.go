package serve

import (
	"sync"

	"dike/internal/serve/api"
)

// The event type is api.Event: the NDJSON stream is part of the wire
// format the coordinator shares.

// subBuffer is each subscriber's channel capacity. A consumer that falls
// further behind than this loses intermediate events (never the terminal
// one, which is re-delivered from history on subscribe).
const subBuffer = 256

// broker fans a job's event stream out to any number of subscribers and
// replays the full history to late joiners, so GET /events is correct
// whether it attaches before, during or after the run.
type broker struct {
	mu      sync.Mutex
	history []api.Event
	subs    map[chan api.Event]struct{}
	closed  bool
}

func newBroker() *broker {
	return &broker{subs: make(map[chan api.Event]struct{})}
}

// publish appends ev to history and offers it to every subscriber.
// Publishing is non-blocking: a subscriber whose buffer is full skips
// the event (it still has it in history if it resubscribes).
func (b *broker) publish(ev api.Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.history = append(b.history, ev)
	for ch := range b.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// close publishes the terminal event and closes every subscriber
// channel. Further publishes and subscriptions see the frozen history.
func (b *broker) close(final api.Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.history = append(b.history, final)
	for ch := range b.subs {
		select {
		case ch <- final:
		default:
		}
		close(ch)
	}
	b.subs = nil
	b.closed = true
}

// subscribe returns the events published so far and, unless the stream
// has already closed, a live channel for the rest. The caller must call
// cancel when done. A nil channel means the history is complete.
func (b *broker) subscribe() (replay []api.Event, live <-chan api.Event, cancel func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	replay = append([]api.Event(nil), b.history...)
	if b.closed {
		return replay, nil, func() {}
	}
	ch := make(chan api.Event, subBuffer)
	b.subs[ch] = struct{}{}
	return replay, ch, func() {
		b.mu.Lock()
		defer b.mu.Unlock()
		if _, ok := b.subs[ch]; ok {
			delete(b.subs, ch)
		}
	}
}
