package events

import "slices"

// Subscription is a wakeup for one consumer of a recorder, created by
// Watch. It carries no events: Emit fills its one-slot channel without
// blocking, so a receive means "the ring may hold events past your cursor"
// and the consumer reads them with SinceLimit. Any number of emits before
// the consumer wakes collapse into one pending signal, so a stalled
// consumer never slows Emit or any other subscriber, and the ring is the
// only copy of every event: a consumer misses an event only when the ring
// itself evicts it, which it sees as a seq gap, exactly like a poller.
type Subscription struct {
	ch chan struct{}
}

// C returns the subscription's wakeup channel. It is closed by
// Unsubscribe.
func (sub *Subscription) C() <-chan struct{} {
	if sub == nil {
		return nil
	}
	return sub.ch
}

// notify signals the consumer without blocking: a signal already pending
// stands for this emit too. Called by Emit under the recorder lock, which
// Unsubscribe also holds while it detaches and closes the channel, so a
// send never reaches a closed channel.
func (sub *Subscription) notify() {
	select {
	case sub.ch <- struct{}{}:
	default:
	}
}

// Watch registers a wakeup: every event emitted after the call signals the
// returned subscription (see Subscription). Watch does not signal for
// already-buffered events; a consumer subscribes first, then reads the ring
// past its cursor, then waits, which misses nothing. Callers must
// Unsubscribe when done. Watch on a nil recorder returns a subscription
// whose channel is already closed.
func (r *Recorder) Watch() *Subscription {
	sub := &Subscription{ch: make(chan struct{}, 1)}
	if r == nil {
		close(sub.ch)
		return sub
	}
	r.mu.Lock()
	r.subs = append(r.subs, sub)
	r.mu.Unlock()
	return sub
}

// Unsubscribe detaches a subscription and closes its channel. Idempotent
// (a second call finds the subscription detached and does nothing) and
// nil-safe.
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
// buffered, or the next sequence number when the ring is empty. A poller
// holding cursor C has provably missed events exactly when OldestSeq > C+1
// and events with those seqs ever existed: the span (C, OldestSeq) was
// evicted by capacity pressure. The /events endpoints report this as
// oldest_seq so cursor gaps are detectable, not silent.
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
