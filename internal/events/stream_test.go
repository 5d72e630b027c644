package events

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// readPast drains the ring past cursor in small chunks, the way the kelpd
// SSE loop does after each wakeup, and returns the new cursor.
func readPast(r *Recorder, cursor uint64, seen func(Event)) uint64 {
	for {
		evs := r.SinceLimit(cursor, 8)
		if len(evs) == 0 {
			return cursor
		}
		for _, e := range evs {
			seen(e)
			cursor = e.Seq
		}
	}
}

// Emits before the consumer wakes collapse into one pending signal; after
// the consumer takes it, the next emit signals again.
func TestWatchWakesOnEmit(t *testing.T) {
	r := MustNew(64)
	sub := r.Watch()
	defer r.Unsubscribe(sub)
	if n := len(sub.C()); n != 0 {
		t.Fatalf("%d signals pending before any emit", n)
	}
	for i := 0; i < 10; i++ {
		r.Emit(float64(i), KelpActuate, "kelp", nil)
	}
	if n := len(sub.C()); n != 1 {
		t.Fatalf("%d signals pending after 10 emits, want 1", n)
	}
	<-sub.C()
	want := uint64(1)
	cursor := readPast(r, 0, func(e Event) {
		if e.Seq != want {
			t.Fatalf("read seq %d, want %d", e.Seq, want)
		}
		want++
	})
	if cursor != 10 {
		t.Fatalf("cursor %d after the wakeup's read, want 10", cursor)
	}
	if n := len(sub.C()); n != 0 {
		t.Fatalf("%d signals pending after the read, want 0", n)
	}
	r.Emit(11, KelpActuate, "kelp", nil)
	select {
	case <-sub.C():
	case <-time.After(time.Second):
		t.Fatal("emit after a taken signal did not wake the subscriber")
	}
}

// A stalled subscriber (nobody waiting) must never block Emit: the burst
// lands in the ring in full, the stalled subscription holds one pending
// signal, another subscription is woken too, and the ring still holds
// everything the stalled consumer will read when it wakes.
func TestStalledSubscriberNeverBlocksEmit(t *testing.T) {
	r := MustNew(2048)
	stalled := r.Watch()
	defer r.Unsubscribe(stalled)
	other := r.Watch()
	defer r.Unsubscribe(other)

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
	if n, m := len(stalled.C()), len(other.C()); n != 1 || m != 1 {
		t.Fatalf("pending signals: stalled %d, other %d, want 1 each", n, m)
	}
	<-stalled.C()
	read := 0
	readPast(r, 0, func(Event) { read++ })
	if read != 1000 {
		t.Fatalf("stalled consumer read %d events on waking, want 1000", read)
	}
}

// Emit signals under the recorder lock, so a consumer that reacts to a
// wakeup by reading the recorder and emitting again must not deadlock: it
// runs on its own goroutine, after Emit has returned.
func TestConsumerReentersRecorder(t *testing.T) {
	r := MustNew(16)
	sub := r.Watch()
	defer r.Unsubscribe(sub)

	var seen []Type
	done := make(chan struct{})
	go func() {
		defer close(done)
		var cursor uint64
		for range sub.C() {
			cursor = readPast(r, cursor, func(e Event) {
				seen = append(seen, e.Type)
				if e.Type == AgentAdmit {
					_ = r.Len()
					r.Emit(e.Time, AgentReject, "agent", nil)
				}
			})
			if len(seen) == 2 {
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
	sub := r.Watch()
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
	sub := r.Watch()
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

// Concurrent emitters and one consumer that waits on its wakeup and reads
// the ring past its cursor, as the SSE loop does: the consumer must see
// every seq exactly once, in order. Run with -race.
func TestWakeupReaderSeesEverySeqOnce(t *testing.T) {
	const emitters, each = 8, 200
	r := MustNew(emitters * each)
	sub := r.Watch()
	defer r.Unsubscribe(sub)

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

	seen := make([]int, emitters*each+1)
	var cursor, last uint64
	for cursor < emitters*each {
		cursor = readPast(r, cursor, func(e Event) {
			if e.Seq <= last {
				t.Fatalf("seq %d read after %d", e.Seq, last)
			}
			last = e.Seq
			seen[e.Seq]++
		})
		if cursor == emitters*each {
			break
		}
		select {
		case <-sub.C():
		case <-time.After(10 * time.Second):
			t.Fatalf("no wakeup with the cursor at %d of %d", cursor, emitters*each)
		}
	}
	wg.Wait()
	for seq := 1; seq < len(seen); seq++ {
		if seen[seq] != 1 {
			t.Fatalf("seq %d read %d times, want once", seq, seen[seq])
		}
	}
}

// Subscribers that come and go while emitters run: Unsubscribe must never
// let a signal reach a closed channel, every consumer must read strictly
// increasing seqs from the ring, and none may stay attached. Run with
// -race.
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
				sub := r.Watch()
				var cursor, last uint64
				ok := true
				read := func() {
					cursor = readPast(r, cursor, func(e Event) {
						if ok && e.Seq <= last {
							errs <- fmt.Sprintf("seq %d after %d", e.Seq, last)
							ok = false
						}
						last = e.Seq
					})
				}
				for n := 0; n < 3 && ok; n++ {
					select {
					case <-sub.C():
						read()
					case <-stop:
					}
				}
				r.Unsubscribe(sub)
				// A signal pending at the close still drains, then the
				// channel ends.
				for range sub.C() {
					read()
				}
				if !ok {
					return
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
