package events

import (
	"slices"
	"sync/atomic"
)

// Subscription is a push-based, non-blocking consumer of a recorder's
// event stream, created by Watch. Each subscription owns a bounded buffer:
// emitted events that match its type filter are delivered to the buffer in
// seq order, and when the consumer falls behind and the buffer fills, new
// events are dropped for that subscriber only — counted by Dropped — while
// every other subscriber and the emitter itself proceed
// untouched. A dropped span is recoverable as long as the ring still holds
// it: the consumer sees the seq gap on its next receive and can backfill
// with Since (the kelpd SSE handlers do exactly this).
type Subscription struct {
	types   map[Type]bool // nil = all types
	ch      chan Event
	dropped atomic.Uint64
}

// C returns the subscription's receive channel. It is closed by
// Unsubscribe; events arrive in strictly increasing seq order.
func (sub *Subscription) C() <-chan Event {
	if sub == nil {
		return nil
	}
	return sub.ch
}

// Dropped returns how many matching events were discarded because the
// subscription's buffer was full when they were emitted.
func (sub *Subscription) Dropped() uint64 {
	if sub == nil {
		return 0
	}
	return sub.dropped.Load()
}

// push delivers one already-stamped event, without blocking: a full buffer
// drops the event and counts it. Called by Emit under the recorder lock,
// which Unsubscribe also holds while it detaches and closes the channel, so
// a send never reaches a closed channel.
func (sub *Subscription) push(e Event) {
	if sub.types != nil && !sub.types[e.Type] {
		return
	}
	select {
	case sub.ch <- e:
	default:
		sub.dropped.Add(1)
	}
}

// Watch registers a push subscriber: events emitted after the call (and
// matching the optional type filter) are delivered to the returned
// subscription's channel, buffered up to buffer events (buffer < 1 selects
// 1). Delivery never blocks Emit — see Subscription. Watch does not replay
// already-buffered events; a consumer that needs history reads Since first
// and discards duplicates by seq, which is race-free because delivery is
// in seq order. Callers must Unsubscribe when done. Watch on a nil
// recorder returns a subscription whose channel is already closed.
func (r *Recorder) Watch(buffer int, types ...Type) *Subscription {
	if buffer < 1 {
		buffer = 1
	}
	sub := &Subscription{ch: make(chan Event, buffer)}
	if len(types) > 0 {
		sub.types = make(map[Type]bool, len(types))
		for _, t := range types {
			sub.types[t] = true
		}
	}
	if r == nil {
		close(sub.ch)
		return sub
	}
	r.mu.Lock()
	r.subs = append(r.subs, sub)
	r.mu.Unlock()
	return sub
}

// Unsubscribe detaches a subscription and closes its channel. Events
// already buffered remain readable. Idempotent (a second call finds the
// subscription detached and does nothing) and nil-safe.
func (r *Recorder) Unsubscribe(sub *Subscription) {
	if r == nil || sub == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, s := range r.subs {
		if s == sub {
			r.subs = slices.Delete(r.subs, i, i+1)
			close(sub.ch)
			return
		}
	}
}

// Subscribers returns the number of attached subscriptions (leak checks).
func (r *Recorder) Subscribers() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.subs)
}

// OldestSeq returns the sequence number of the oldest event still
// buffered, or NextSeq when the ring is empty. A poller holding cursor C
// has provably missed events exactly when OldestSeq > C+1 and events with
// those seqs ever existed: the span (C, OldestSeq) was evicted by capacity
// pressure. The /events endpoints report this as oldest_seq so cursor gaps
// are detectable, not silent.
func (r *Recorder) OldestSeq() uint64 {
	if r == nil {
		return 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.size == 0 {
		return r.nextSeq
	}
	return r.ring[r.start].Seq
}
