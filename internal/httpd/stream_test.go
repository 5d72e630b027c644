package httpd

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"kelp/internal/events"
)

// sseFrame is one parsed id:/data: SSE frame.
type sseFrame struct {
	id   uint64
	data string
}

// openStream issues a GET against an SSE endpoint and verifies the stream
// handshake. The caller owns resp.Body (and the ctx that hangs it up).
func openStream(t testing.TB, ctx context.Context, url string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		resp.Body.Close()
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		resp.Body.Close()
		t.Fatalf("GET %s Content-Type = %q", url, ct)
	}
	return resp
}

// readFrames parses SSE frames until stop returns true or the stream ends.
// It returns the frames read and whether the stream ended (EOF) cleanly.
func readFrames(t testing.TB, resp *http.Response, stop func(sseFrame) bool) ([]sseFrame, bool) {
	t.Helper()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var frames []sseFrame
	var cur sseFrame
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.data != "" {
				frames = append(frames, cur)
				if stop != nil && stop(cur) {
					return frames, false
				}
				cur = sseFrame{}
			}
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.ParseUint(line[len("id: "):], 10, 64)
			if err != nil {
				t.Fatalf("bad id line %q: %v", line, err)
			}
			cur.id = id
		case strings.HasPrefix(line, "data: "):
			cur.data = line[len("data: "):]
		case strings.HasPrefix(line, ":"): // comment / heartbeat
		default:
			t.Fatalf("unexpected stream line %q", line)
		}
	}
	return frames, true
}

// pollRaw cursor-polls a full event list, returning each event's raw JSON
// bytes exactly as the server encoded them.
func pollRaw(t testing.TB, url string) ([]json.RawMessage, []uint64) {
	t.Helper()
	resp, body := do(t, "GET", url, "")
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s = %d %s", url, resp.StatusCode, body)
	}
	var page struct {
		Events []json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatal(err)
	}
	seqs := make([]uint64, len(page.Events))
	for i, raw := range page.Events {
		var e struct {
			Seq uint64 `json:"seq"`
		}
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatal(err)
		}
		seqs[i] = e.Seq
	}
	return page.Events, seqs
}

// The tentpole contract: a streamed event sequence is byte-identical to a
// cursor-polled one — same frames, same JSON bytes, same order.
func TestStreamByteIdenticalToPolling(t *testing.T) {
	_, ts := newServer(t)
	runSession(t, ts.URL, "a", false)

	raws, seqs := pollRaw(t, ts.URL+"/sessions/a/events")
	if len(seqs) == 0 {
		t.Fatal("scripted session produced no events")
	}
	last := seqs[len(seqs)-1]

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resp := openStream(t, ctx, ts.URL+"/sessions/a/events/stream?since=0", nil)
	defer resp.Body.Close()
	frames, _ := readFrames(t, resp, func(f sseFrame) bool { return f.id >= last })

	if len(frames) != len(raws) {
		t.Fatalf("streamed %d frames, polled %d events", len(frames), len(raws))
	}
	for i := range frames {
		if frames[i].id != seqs[i] {
			t.Fatalf("frame %d id = %d, polled seq %d", i, frames[i].id, seqs[i])
		}
		if frames[i].data != string(raws[i]) {
			t.Fatalf("seq %d diverged:\n  streamed: %s\n  polled:   %s", seqs[i], frames[i].data, raws[i])
		}
	}
}

// Disconnect mid-stream and resume with Last-Event-ID: the stitched
// sequence must equal one uninterrupted poll, and the header must override
// a stale ?since= query (the browser reconnect case).
func TestStreamResumeAfterReconnect(t *testing.T) {
	_, ts := newServer(t)
	runSession(t, ts.URL, "a", false)
	raws, seqs := pollRaw(t, ts.URL+"/sessions/a/events")
	if len(seqs) < 6 {
		t.Fatalf("need >= 6 events, got %d", len(seqs))
	}
	cut := seqs[2]
	last := seqs[len(seqs)-1]

	ctx1, cancel1 := context.WithCancel(context.Background())
	resp1 := openStream(t, ctx1, ts.URL+"/sessions/a/events/stream?since=0", nil)
	head, _ := readFrames(t, resp1, func(f sseFrame) bool { return f.id >= cut })
	cancel1() // hang up mid-stream
	resp1.Body.Close()

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	resp2 := openStream(t, ctx2, ts.URL+"/sessions/a/events/stream?since=0",
		map[string]string{"Last-Event-ID": fmt.Sprint(cut)})
	defer resp2.Body.Close()
	tail, _ := readFrames(t, resp2, func(f sseFrame) bool { return f.id >= last })

	all := append(append([]sseFrame{}, head...), tail...)
	if len(all) != len(raws) {
		t.Fatalf("stitched stream has %d frames, polled %d events", len(all), len(raws))
	}
	for i := range all {
		if all[i].id != seqs[i] || all[i].data != string(raws[i]) {
			t.Fatalf("stitched frame %d (seq %d) diverged from poll", i, seqs[i])
		}
	}
}

func TestStreamValidation(t *testing.T) {
	_, ts := newServer(t)
	mkSession(t, ts.URL, "a")
	for _, base := range []string{ts.URL + "/events/stream", ts.URL + "/sessions/a/events/stream"} {
		if resp, _ := do(t, "GET", base+"?since=abc", ""); resp.StatusCode != 400 {
			t.Errorf("GET %s?since=abc = %d, want 400", base, resp.StatusCode)
		}
		req, _ := http.NewRequest("GET", base, nil)
		req.Header.Set("Last-Event-ID", "xyz")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("GET %s with bad Last-Event-ID = %d, want 400", base, resp.StatusCode)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Client disconnects must tear the subscription down and return the
// handler goroutine — open/close cycles leak neither.
func TestStreamTeardownOnDisconnect(t *testing.T) {
	s, ts := newServer(t)
	runSession(t, ts.URL, "a", false)
	s.mu.RLock()
	sess := s.sessions["a"]
	s.mu.RUnlock()
	rec := sess.agent.Events()

	baseline := runtime.NumGoroutine()
	const streams = 4
	cancels := make([]context.CancelFunc, 0, 2*streams)
	for i := 0; i < streams; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels = append(cancels, cancel)
		resp := openStream(t, ctx, ts.URL+"/sessions/a/events/stream?since=0", nil)
		defer resp.Body.Close()
		ctx2, cancel2 := context.WithCancel(context.Background())
		cancels = append(cancels, cancel2)
		resp2 := openStream(t, ctx2, ts.URL+"/events/stream", nil)
		defer resp2.Body.Close()
	}
	waitFor(t, 5*time.Second, func() bool { return rec.Subscribers() == streams },
		"session subscriptions never registered")
	if n := s.rec.Subscribers(); n != streams {
		t.Fatalf("server Subscribers = %d, want %d", n, streams)
	}

	for _, cancel := range cancels {
		cancel()
	}
	waitFor(t, 5*time.Second, func() bool {
		return rec.Subscribers() == 0 && s.rec.Subscribers() == 0
	}, "subscriptions leaked after client disconnect")
	waitFor(t, 5*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+1
	}, fmt.Sprintf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine()))
}

// Destroying a session ends its streams cleanly (EOF, not a hang), after
// delivering everything its recorder held.
func TestStreamEndsOnSessionDestroy(t *testing.T) {
	s, ts := newServer(t)
	runSession(t, ts.URL, "a", false)
	_, seqs := pollRaw(t, ts.URL+"/sessions/a/events")
	last := seqs[len(seqs)-1]

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resp := openStream(t, ctx, ts.URL+"/sessions/a/events/stream?since=0", nil)
	defer resp.Body.Close()

	type result struct {
		frames []sseFrame
		eof    bool
	}
	done := make(chan result, 1)
	go func() {
		frames, eof := readFrames(t, resp, nil) // read until the server ends the stream
		done <- result{frames, eof}
	}()
	// Let the stream catch up, then destroy the session out from under it.
	waitFor(t, 5*time.Second, func() bool { return s.rec != nil && sessionSubscribers(s, "a") == 1 },
		"stream never subscribed")
	do(t, "DELETE", ts.URL+"/sessions/a", "")

	select {
	case r := <-done:
		if !r.eof {
			t.Fatal("stream did not end at EOF")
		}
		if got := r.frames[len(r.frames)-1].id; got < last {
			t.Fatalf("stream ended at seq %d, session had %d", got, last)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream still open 10s after session destroy")
	}
}

// sessionSubscribers reads a live session's subscriber count (0 if gone).
func sessionSubscribers(s *Server, name string) int {
	s.mu.RLock()
	sess := s.sessions[name]
	s.mu.RUnlock()
	if sess == nil {
		return 0
	}
	return sess.agent.Events().Subscribers()
}

// Drain with open server-level SSE connections: the stream must deliver
// the full shutdown narrative — every session.destroy — then EOF, and no
// handler goroutine may outlive it.
func TestServerStreamEndsAfterDrain(t *testing.T) {
	s, ts := newServer(t)
	mkSession(t, ts.URL, "a")
	mkSession(t, ts.URL, "b")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resp := openStream(t, ctx, ts.URL+"/events/stream", nil)
	defer resp.Body.Close()
	type result struct {
		frames []sseFrame
		eof    bool
	}
	done := make(chan result, 1)
	go func() {
		frames, eof := readFrames(t, resp, nil)
		done <- result{frames, eof}
	}()
	waitFor(t, 5*time.Second, func() bool { return s.rec.Subscribers() == 1 },
		"server stream never subscribed")

	s.Drain(context.Background())

	select {
	case r := <-done:
		if !r.eof {
			t.Fatal("server stream did not end at EOF after drain")
		}
		destroys := 0
		for _, f := range r.frames {
			var e events.Event
			if err := json.Unmarshal([]byte(f.data), &e); err != nil {
				t.Fatal(err)
			}
			if e.Type == events.SessionDestroy {
				destroys++
			}
		}
		if destroys != 2 {
			t.Fatalf("drained stream delivered %d session.destroy events, want 2", destroys)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server stream still open 10s after drain")
	}
	waitFor(t, 5*time.Second, func() bool { return s.rec.Subscribers() == 0 },
		"server subscription leaked after drain")
}

// A connected-but-not-reading SSE client must never block the session: its
// subscription drops, the advance path never waits on it, and a sibling
// session is untouched.
func TestStalledStreamDoesNotBlockAdvance(t *testing.T) {
	_, ts := newServerCfg(t, Config{})
	mkSession(t, ts.URL, "a")
	mkSession(t, ts.URL, "b")
	for _, name := range []string{"a", "b"} {
		if resp, body := do(t, "POST", ts.URL+"/sessions/"+name+"/tasks", `{"ml":"CNN1","cores":2}`); resp.StatusCode != 201 {
			t.Fatalf("admit = %d %s", resp.StatusCode, body)
		}
	}

	// Open a stream on "a" and never read a byte from it.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	resp := openStream(t, ctx, ts.URL+"/sessions/a/events/stream?since=0", nil)
	defer resp.Body.Close()

	start := time.Now()
	for i := 0; i < 8; i++ {
		for _, name := range []string{"a", "b"} {
			if resp, body := do(t, "POST", ts.URL+"/sessions/"+name+"/advance", `{"ms":500,"wait":true}`); resp.StatusCode != 200 {
				t.Fatalf("advance %s with stalled stream = %d %s", name, resp.StatusCode, body)
			}
		}
	}
	if wall := time.Since(start); wall > 30*time.Second {
		t.Fatalf("advances took %s behind a stalled stream", wall)
	}
}

// A session whose ring overflowed must make the evicted span detectable:
// oldest_seq in the poll response exceeds since+1.
func TestEventsOldestSeqGapDetection(t *testing.T) {
	_, ts := newServer(t)
	resp, body := do(t, "POST", ts.URL+"/sessions", `{"name":"tiny","event_capacity":16}`)
	if resp.StatusCode != 201 {
		t.Fatalf("create = %d %s", resp.StatusCode, body)
	}
	base := ts.URL + "/sessions/tiny"
	if resp, body := do(t, "POST", base+"/tasks", `{"ml":"CNN1","cores":2}`); resp.StatusCode != 201 {
		t.Fatalf("admit = %d %s", resp.StatusCode, body)
	}
	for i := 0; i < 4; i++ {
		if resp, body := do(t, "POST", base+"/tasks", `{"kind":"Stitch"}`); resp.StatusCode != 201 {
			t.Fatalf("admit = %d %s", resp.StatusCode, body)
		}
	}
	do(t, "POST", base+"/advance", `{"ms":2000,"wait":true}`)

	out, _ := getEvents(t, base+"/events")
	if out.Dropped == 0 {
		t.Fatal("16-slot ring did not overflow in a 2 s antagonized session")
	}
	if out.OldestSeq <= 1 {
		t.Fatalf("oldest_seq = %d after eviction, want > 1", out.OldestSeq)
	}
	if got := out.Events[0].Seq; got != out.OldestSeq {
		t.Errorf("first returned seq %d != oldest_seq %d", got, out.OldestSeq)
	}
	// The kelpload gap rule: first seq > since+1 on a since=0 poll.
	if out.Events[0].Seq <= 0+1 {
		t.Error("gap not detectable from first returned seq")
	}
}

// Empty request bodies mean "all defaults" — not 400 body: EOF. Trailing
// garbage and truncated JSON still fail.
func TestEmptyAndMalformedBodies(t *testing.T) {
	_, ts := newServer(t)

	// Empty create body: auto-named session with default policy.
	resp, body := do(t, "POST", ts.URL+"/sessions", "")
	if resp.StatusCode != 201 {
		t.Fatalf("empty-body create = %d %s, want 201", resp.StatusCode, body)
	}
	// Empty advance body: decodes to ms=0 and fails validation — with the
	// range message, not a decode error.
	mkSession(t, ts.URL, "a")
	resp, body = do(t, "POST", ts.URL+"/sessions/a/advance", "")
	if resp.StatusCode != 400 || strings.Contains(body, "EOF") {
		t.Fatalf("empty-body advance = %d %s, want 400 with range error", resp.StatusCode, body)
	}
	if !strings.Contains(body, "out of") {
		t.Fatalf("empty-body advance error = %s, want ms-range message", body)
	}
	// Trailing garbage is still rejected.
	if resp, _ := do(t, "POST", ts.URL+"/sessions", `{"name":"z"} extra`); resp.StatusCode != 400 {
		t.Errorf("trailing-garbage create = %d, want 400", resp.StatusCode)
	}
	// Truncated JSON (a started, unfinished value) is still rejected.
	if resp, _ := do(t, "POST", ts.URL+"/sessions", `{"name":`); resp.StatusCode != 400 {
		t.Errorf("truncated create = %d, want 400", resp.StatusCode)
	}
}

// The dashboard ships inside the binary and references the live endpoints
// it fronts.
func TestDashboardServes(t *testing.T) {
	_, ts := newServer(t)
	resp, body := do(t, "GET", ts.URL+"/", "")
	if resp.StatusCode != 200 {
		t.Fatalf("GET / = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("Content-Type = %q", ct)
	}
	for _, want := range []string{"<!DOCTYPE html>", "EventSource", "/events/stream", "/healthz"} {
		if !strings.Contains(body, want) {
			t.Errorf("dashboard missing %q", want)
		}
	}
	// Only the exact root serves the page; unknown paths still 404.
	if resp, _ := do(t, "GET", ts.URL+"/nope", ""); resp.StatusCode != 404 {
		t.Errorf("GET /nope = %d, want 404", resp.StatusCode)
	}
}

func BenchmarkSortSessionInfos(b *testing.B) {
	const n = 1024
	reversed := make([]map[string]any, n)
	for i := range reversed {
		reversed[i] = map[string]any{"name": fmt.Sprintf("s-%06d", n-i)}
	}
	infos := make([]map[string]any, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(infos, reversed)
		sortSessionInfos(infos)
	}
}
