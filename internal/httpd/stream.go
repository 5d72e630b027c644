package httpd

// Live event streaming (SSE). The /events/stream endpoints push the same
// recorder streams the cursor-polled /events endpoints serve, as
// text/event-stream frames whose id: field is the recorder seq — so a
// disconnected client resumes exactly where it left off by reconnecting
// with Last-Event-ID (browsers' EventSource does this automatically) or
// ?since=N, and a streamed sequence is byte-identical to a polled one.
//
// Every frame is read from the recorder ring past the stream's cursor;
// the ring is the only copy of an event. Each open stream holds one
// events.Subscription, a wakeup that Emit signals without blocking, and
// reads the ring again whenever it fires. A slow consumer therefore loses
// nothing until the ring itself evicts, which the client sees as a seq
// gap, exactly like a poller would, and a stalled stream only ever stalls
// itself.
//
// Streams end when the client disconnects, when the session is destroyed
// (per-session streams), or when Drain/Close finishes tearing sessions
// down — after the final session.destroy event, so an operator watching
// /events/stream sees the whole shutdown narrative before EOF.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"kelp/internal/events"
)

// streamChunk bounds one read of the ring, so a stream resuming from an
// old cursor never copies the whole backlog at once.
const streamChunk = 512

// streamHeartbeat is the idle-keepalive period of the stream endpoints: a
// comment line goes out whenever this long passes with no event, so
// proxies and clients can tell a quiet stream from a dead one.
const streamHeartbeat = 15 * time.Second

func (s *Server) handleServerEventStream(w http.ResponseWriter, r *http.Request) {
	s.serveEventStream(w, r, s.rec, s.streamsDone)
}

func handleSessionEventStream(s *Server, sess *Session, w http.ResponseWriter, r *http.Request) {
	s.serveEventStream(w, r, sess.agent.Events(), sess.gone)
}

// parseStreamCursor resolves the stream's starting cursor and type filter.
// A Last-Event-ID header (the SSE reconnect protocol) takes precedence
// over ?since=N: on automatic reconnect the browser re-requests the same
// URL, and the header — not the stale query parameter — names the last
// frame it actually saw.
func parseStreamCursor(r *http.Request) (uint64, []events.Type, error) {
	q := r.URL.Query()
	var since uint64
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, nil, fmt.Errorf("since: %w", err)
		}
		since = n
	}
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, nil, fmt.Errorf("Last-Event-ID: %w", err)
		}
		since = n
	}
	var types []events.Type
	for _, v := range q["type"] {
		types = append(types, events.Type(v))
	}
	return since, types, nil
}

// serveEventStream streams a recorder over SSE until the client hangs up
// or done closes. No session or pool lock is ever held here; the handler
// spawns no goroutines, so teardown is just returning (the deferred
// Unsubscribe detaches the wakeup).
func (s *Server) serveEventStream(w http.ResponseWriter, r *http.Request, rec *events.Recorder, done <-chan struct{}) {
	since, types, err := parseStreamCursor(r)
	if err != nil {
		s.writeErr(w, r, http.StatusBadRequest, err)
		return
	}

	// Watch before the first read: an event emitted after it signals, one
	// emitted before it is in the ring, so nothing falls between.
	sub := rec.Watch()
	defer rec.Unsubscribe(sub)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flush := func() {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}

	// The opening comment reports oldest_seq so a resuming client can tell
	// whether its cursor span was evicted (a real gap) before any frame
	// arrives — the streaming analog of the polled oldest_seq field.
	cursor := since
	if _, err := fmt.Fprintf(w, ": stream since=%d oldest_seq=%d\n\n", since, rec.OldestSeq()); err != nil {
		s.noteWriteFailure(w, r, err)
		return
	}

	// sendNew writes every event past the cursor, in bounded chunks, and
	// flushes the batch.
	sendNew := func() error {
		for {
			evs := rec.SinceLimit(cursor, streamChunk, types...)
			if len(evs) == 0 {
				break
			}
			for _, e := range evs {
				data, err := json.Marshal(e)
				if err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "id: %d\ndata: %s\n\n", e.Seq, data); err != nil {
					return err
				}
				cursor = e.Seq
			}
		}
		flush()
		return nil
	}

	heartbeat := time.NewTicker(streamHeartbeat)
	defer heartbeat.Stop()
	ctx := r.Context()
	for {
		if err := sendNew(); err != nil {
			s.noteWriteFailure(w, r, err)
			return
		}
		select {
		case <-sub.C():
		case <-done:
			// Session destroyed or server draining: send the tail (for the
			// server stream that includes the final session.destroy
			// events) and end the stream cleanly.
			if err := sendNew(); err != nil {
				s.noteWriteFailure(w, r, err)
				return
			}
			fmt.Fprint(w, ": stream closed\n\n")
			flush()
			return
		case <-ctx.Done():
			return
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": hb\n\n"); err != nil {
				s.noteWriteFailure(w, r, err)
				return
			}
		}
	}
}
