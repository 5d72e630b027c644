package events

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestWatchDeliversInSeqOrder(t *testing.T) {
	r := MustNew(64)
	sub := r.Watch(32)
	defer r.Unsubscribe(sub)
	for i := 0; i < 10; i++ {
		r.Emit(float64(i), KelpActuate, "kelp", nil)
	}
	for want := uint64(1); want <= 10; want++ {
		select {
		case e := <-sub.C():
			if e.Seq != want {
				t.Fatalf("got seq %d, want %d", e.Seq, want)
			}
		case <-time.After(time.Second):
			t.Fatalf("missing seq %d", want)
		}
	}
	if d := sub.dropped.Load(); d != 0 {
		t.Errorf("dropped = %d, want 0", d)
	}
}

func TestWatchTypeFilter(t *testing.T) {
	r := MustNew(64)
	sub := r.Watch(32, KelpActuate)
	defer r.Unsubscribe(sub)
	r.Emit(0.1, DistressAssert, "memsys", nil)
	r.Emit(0.2, KelpActuate, "kelp", nil)
	r.Emit(0.3, DistressDeassert, "memsys", nil)
	select {
	case e := <-sub.C():
		if e.Type != KelpActuate || e.Seq != 2 {
			t.Fatalf("got %+v", e)
		}
	case <-time.After(time.Second):
		t.Fatal("filtered event not delivered")
	}
	select {
	case e := <-sub.C():
		t.Fatalf("unexpected extra delivery %+v", e)
	default:
	}
	// Non-matching events must not count as drops either.
	if d := sub.dropped.Load(); d != 0 {
		t.Errorf("dropped = %d, want 0", d)
	}
}

// A stalled subscriber (nobody reading) must never block Emit: the burst
// lands in the ring in full, the subscription keeps its first buffered
// events, and everything past the buffer is counted dropped.
func TestStalledSubscriberNeverBlocksEmit(t *testing.T) {
	r := MustNew(2048)
	const buffer = 4
	sub := r.Watch(buffer)
	defer r.Unsubscribe(sub)

	done := make(chan struct{})
	go func() {
		for i := 0; i < 1000; i++ {
			r.Emit(float64(i), KelpActuate, "kelp", nil)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("1000-event burst into a stalled subscriber blocked Emit")
	}

	if r.Len() != 1000 {
		t.Errorf("ring holds %d events, want 1000", r.Len())
	}
	if d := sub.dropped.Load(); d != 1000-buffer {
		t.Errorf("dropped = %d, want %d", d, 1000-buffer)
	}
	// The buffered prefix survives in order; the consumer can see the gap
	// (next delivered seq after a drain would jump) and backfill via Since.
	for want := uint64(1); want <= buffer; want++ {
		e := <-sub.C()
		if e.Seq != want {
			t.Fatalf("buffered seq %d, want %d", e.Seq, want)
		}
	}
}

// A full buffer drops only for its own subscription: a second subscriber
// with room still receives every event in seq order.
func TestDropsArePerSubscriber(t *testing.T) {
	r := MustNew(64)
	small := r.Watch(2)
	defer r.Unsubscribe(small)
	large := r.Watch(32)
	defer r.Unsubscribe(large)

	for i := 0; i < 10; i++ {
		r.Emit(float64(i), KelpActuate, "kelp", nil)
	}
	if d := small.dropped.Load(); d != 8 {
		t.Errorf("small dropped = %d, want 8", d)
	}
	if d := large.dropped.Load(); d != 0 {
		t.Errorf("large dropped = %d, want 0", d)
	}
	for want := uint64(1); want <= 10; want++ {
		if e := <-large.C(); e.Seq != want {
			t.Fatalf("large got seq %d, want %d", e.Seq, want)
		}
	}
}

// Delivery happens inside Emit under the recorder lock, so a consumer
// that reacts to an event by reading the recorder and emitting again must
// not deadlock: it runs on its own goroutine, after Emit has returned.
func TestConsumerReentersRecorder(t *testing.T) {
	r := MustNew(16)
	sub := r.Watch(4)
	defer r.Unsubscribe(sub)

	var seen []Type
	done := make(chan struct{})
	go func() {
		defer close(done)
		for e := range sub.C() {
			seen = append(seen, e.Type)
			if e.Type == AgentAdmit {
				_ = r.Since(0)
				_ = r.Len()
				r.Emit(e.Time, AgentReject, "agent", nil)
			}
			if e.Type == AgentReject {
				return
			}
		}
	}()
	r.Emit(1, AgentAdmit, "agent", nil)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("consumer re-entering the recorder deadlocked")
	}

	evs := r.Events()
	if len(evs) != 2 || evs[0].Type != AgentAdmit || evs[1].Type != AgentReject {
		t.Fatalf("ring = %+v", evs)
	}
	if evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("seqs = %d, %d", evs[0].Seq, evs[1].Seq)
	}
	if len(seen) != 2 || seen[0] != AgentAdmit || seen[1] != AgentReject {
		t.Fatalf("consumer saw %v", seen)
	}
}

func TestUnsubscribeClosesChannelAndDetaches(t *testing.T) {
	r := MustNew(16)
	sub := r.Watch(4)
	if n := r.Subscribers(); n != 1 {
		t.Fatalf("Subscribers = %d, want 1", n)
	}
	r.Unsubscribe(sub)
	r.Unsubscribe(sub) // idempotent
	if n := r.Subscribers(); n != 0 {
		t.Fatalf("Subscribers = %d, want 0", n)
	}
	if _, ok := <-sub.C(); ok {
		t.Fatal("channel not closed after Unsubscribe")
	}
	r.Emit(1, KelpActuate, "kelp", nil) // must not panic on the closed sub
}

func TestWatchNilRecorder(t *testing.T) {
	var r *Recorder
	sub := r.Watch(4)
	if _, ok := <-sub.C(); ok {
		t.Fatal("nil recorder's subscription channel not closed")
	}
	r.Unsubscribe(sub)
	if r.Subscribers() != 0 || r.OldestSeq() != 1 {
		t.Fatal("nil recorder reported non-zero stream state")
	}
}

func TestOldestSeq(t *testing.T) {
	r := MustNew(3)
	if got := r.OldestSeq(); got != 1 {
		t.Fatalf("empty OldestSeq = %d, want 1 (= NextSeq)", got)
	}
	for i := 1; i <= 5; i++ {
		r.Emit(float64(i), AgentAdmit, "agent", nil)
	}
	// Ring of 3 after 5 emits: seqs 3..5 buffered, 1..2 evicted.
	if got := r.OldestSeq(); got != 3 {
		t.Fatalf("OldestSeq = %d, want 3", got)
	}
	// The gap rule: cursor 0 has lost (0, 3) — a poller must be able to
	// detect it from oldest_seq alone.
	if oldest := r.OldestSeq(); oldest <= 0+1 {
		t.Fatal("eviction not detectable via OldestSeq")
	}
}

// Concurrent emitters with a subscriber attached: the subscriber must
// still observe strictly increasing seqs, and the ring must hold every
// event. Run with -race.
func TestConcurrentEmitFanOutOrdered(t *testing.T) {
	r := MustNew(4096)
	sub := r.Watch(4096)
	defer r.Unsubscribe(sub)

	const emitters, each = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Emit(0, KelpActuate, "kelp", nil)
			}
		}()
	}
	wg.Wait()

	if r.Len() != emitters*each {
		t.Fatalf("ring holds %d, want %d", r.Len(), emitters*each)
	}
	var last uint64
	for i := 0; i < emitters*each; i++ {
		e := <-sub.C()
		if e.Seq <= last {
			t.Fatalf("subscription order broken: %d after %d", e.Seq, last)
		}
		last = e.Seq
	}
}

// Subscribers that come and go while emitters run: Unsubscribe must never
// let a delivery reach a closed channel, every subscription must see
// strictly increasing seqs, and none may stay attached. Run with -race.
func TestUnsubscribeRacesEmit(t *testing.T) {
	r := MustNew(1024)
	const emitters, each = 4, 2000
	const watchers, rounds = 4, 50
	stop := make(chan struct{})
	var emit sync.WaitGroup
	for g := 0; g < emitters; g++ {
		emit.Add(1)
		go func() {
			defer emit.Done()
			for i := 0; i < each; i++ {
				r.Emit(float64(i), KelpActuate, "kelp", nil)
			}
		}()
	}
	var watch sync.WaitGroup
	errs := make(chan string, watchers)
	for g := 0; g < watchers; g++ {
		watch.Add(1)
		go func() {
			defer watch.Done()
			for i := 0; i < rounds; i++ {
				sub := r.Watch(8)
				var last uint64
				inOrder := func(e Event) bool {
					ok := e.Seq > last
					if !ok {
						errs <- fmt.Sprintf("seq %d after %d", e.Seq, last)
					}
					last = e.Seq
					return ok
				}
				for n := 0; n < 3; n++ {
					select {
					case e := <-sub.C():
						if !inOrder(e) {
							r.Unsubscribe(sub)
							return
						}
					case <-stop:
					}
				}
				r.Unsubscribe(sub)
				// Whatever was buffered before the close still drains in order.
				for e := range sub.C() {
					if !inOrder(e) {
						return
					}
				}
			}
		}()
	}
	emit.Wait()
	close(stop)
	watch.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if n := r.Subscribers(); n != 0 {
		t.Fatalf("Subscribers = %d after every Unsubscribe, want 0", n)
	}
}

// SinceLimit's contiguous-cursor fast path must agree with a full scan.
func TestSinceCursorFastPath(t *testing.T) {
	r := MustNew(8)
	for i := 1; i <= 20; i++ { // wrap the ring repeatedly
		r.Emit(float64(i), AgentAdmit, "agent", nil)
	}
	// Buffered: 13..20. Cursors below, inside, and past the window.
	// ^uint64(0) regresses the fast-path overflow: a cursor so large that
	// after-oldest+1 wraps negative must fall into the "nothing newer"
	// branch, not index the ring at -1.
	for _, after := range []uint64{0, 5, 12, 13, 15, 19, 20, 25, ^uint64(0)} {
		got := r.Since(after)
		var want []Event
		for s := uint64(13); s <= 20; s++ {
			if s > after {
				want = append(want, Event{Seq: s})
			}
		}
		if len(got) != len(want) {
			t.Fatalf("Since(%d) returned %d events, want %d", after, len(got), len(want))
		}
		for i := range got {
			if got[i].Seq != want[i].Seq {
				t.Fatalf("Since(%d)[%d].Seq = %d, want %d", after, i, got[i].Seq, want[i].Seq)
			}
		}
	}
}
