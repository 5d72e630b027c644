package httpd

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"kelp/internal/events"
	"kelp/internal/sim"
)

// Job states. A job is terminal once it leaves jobQueued/jobRunning.
const (
	jobQueued int32 = iota
	jobRunning
	jobDone
	jobError
	jobCanceled
	jobTimeout
)

func jobStateName(s int32) string {
	switch s {
	case jobQueued:
		return "queued"
	case jobRunning:
		return "running"
	case jobDone:
		return "done"
	case jobError:
		return "error"
	case jobCanceled:
		return "canceled"
	case jobTimeout:
		return "timeout"
	}
	return "unknown"
}

// Job is one queued simulation advance. Status fields are written only by
// the session worker (or shutdown, after the worker exited) and published
// through the atomic state + the done channel, so polling a job never
// touches the simulation lock.
type Job struct {
	ID    uint64
	MS    float64
	state atomic.Int32
	done  chan struct{} // closed when the job reaches a terminal state

	// Valid after done is closed.
	errMsg string
	nowSec float64
}

func (j *Job) terminal() bool { return j.state.Load() > jobRunning }

// finish publishes a terminal state exactly once.
func (j *Job) finish(state int32, nowSec float64, err error) {
	if err != nil {
		j.errMsg = err.Error()
	}
	j.nowSec = nowSec
	j.state.Store(state)
	close(j.done)
}

// status renders the job for polling clients.
func (j *Job) status(session string) map[string]any {
	st := j.state.Load()
	out := map[string]any{
		"id":    j.ID,
		"ms":    j.MS,
		"state": jobStateName(st),
		"poll":  fmt.Sprintf("/sessions/%s/jobs/%d", session, j.ID),
	}
	if st > jobRunning {
		out["now_sec"] = j.nowSec
		if j.errMsg != "" {
			out["error"] = j.errMsg
		}
	}
	return out
}

// advanceRequest is the POST /sessions/{name}/advance body. wait=true
// blocks until the job completes (bounded by the request deadline; on
// expiry the response downgrades to 202 + the job's poll URL).
type advanceRequest struct {
	MS   float64 `json:"ms"`
	Wait bool    `json:"wait"`
}

// maxAdvanceMS bounds one job's simulated span.
const maxAdvanceMS = 60_000

func handleAdvance(s *Server, sess *Session, w http.ResponseWriter, r *http.Request) {
	var req advanceRequest
	if err := decodeJSONBody(r, &req); err != nil {
		s.writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	if req.MS <= 0 || req.MS > maxAdvanceMS {
		s.writeErr(w, r, http.StatusBadRequest,
			fmt.Errorf("ms = %v out of (0, %d]", req.MS, maxAdvanceMS))
		return
	}
	if s.draining.Load() {
		s.shed(r, "draining")
		s.writeErr(w, r, http.StatusServiceUnavailable, fmt.Errorf("httpd: draining"))
		return
	}

	j := &Job{MS: req.MS, done: make(chan struct{})}
	sess.jobMu.Lock()
	// Checked under jobMu so it orders against shutdown's job sweep (also
	// under jobMu, after stopped is set): a session resolved just before
	// destroy/TTL eviction must not accept a job the dead worker will
	// never run.
	if sess.stopped.Load() {
		sess.jobMu.Unlock()
		s.writeErr(w, r, http.StatusConflict,
			fmt.Errorf("httpd: session %q shutting down", sess.name))
		return
	}
	sess.nextID++
	j.ID = sess.nextID
	// Reserve the table slot before the enqueue attempt so a full queue
	// costs nothing persistent. jobsQueued is bumped inside the critical
	// section so shutdown's sweep never decrements a job it can't see.
	select {
	case sess.jobs <- j:
		sess.table[j.ID] = j
		sess.order = append(sess.order, j.ID)
		sess.pruneJobsLocked()
		s.jobsQueued.Add(1)
		sess.jobMu.Unlock()
	default:
		sess.nextID--
		sess.jobMu.Unlock()
		s.shed(r, "queue_full")
		w.Header().Set("Retry-After", "1")
		s.writeErr(w, r, http.StatusTooManyRequests,
			fmt.Errorf("httpd: session %q advance queue full (%d)", sess.name, cap(sess.jobs)))
		return
	}

	if req.Wait {
		select {
		case <-j.done:
			s.writeJSON(w, r, http.StatusOK, j.status(sess.name))
			return
		case <-r.Context().Done():
			// Fall through to the async answer; the job keeps running.
		}
	}
	s.writeJSON(w, r, http.StatusAccepted, j.status(sess.name))
}

// pruneJobsLocked drops the oldest terminal jobs beyond keepTerminalJobs
// so a long-lived session's job table stays bounded. Queued and running
// jobs are never dropped. Caller holds jobMu.
func (sess *Session) pruneJobsLocked() {
	terminal := 0
	for _, id := range sess.order {
		if j := sess.table[id]; j != nil && j.terminal() {
			terminal++
		}
	}
	if terminal <= keepTerminalJobs {
		return
	}
	kept := sess.order[:0]
	for _, id := range sess.order {
		j := sess.table[id]
		if j != nil && j.terminal() && terminal > keepTerminalJobs {
			delete(sess.table, id)
			terminal--
			continue
		}
		kept = append(kept, id)
	}
	sess.order = kept
}

func handleJobsList(s *Server, sess *Session, w http.ResponseWriter, r *http.Request) {
	sess.jobMu.Lock()
	out := make([]map[string]any, 0, len(sess.order))
	for _, id := range sess.order {
		if j := sess.table[id]; j != nil {
			out = append(out, j.status(sess.name))
		}
	}
	sess.jobMu.Unlock()
	s.writeJSON(w, r, http.StatusOK, map[string]any{"jobs": out, "queue_depth": cap(sess.jobs)})
}

func handleJobGet(s *Server, sess *Session, w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		s.writeErr(w, r, http.StatusBadRequest, fmt.Errorf("job id: %w", err))
		return
	}
	sess.jobMu.Lock()
	j := sess.table[id]
	sess.jobMu.Unlock()
	if j == nil {
		s.writeErr(w, r, http.StatusNotFound, fmt.Errorf("httpd: no job %d", id))
		return
	}
	s.writeJSON(w, r, http.StatusOK, j.status(sess.name))
}

// worker drains the session's advance queue FIFO. One worker per session:
// jobs within a session serialize (that's what makes a session replay
// deterministic), jobs across sessions run fully concurrently.
func (sess *Session) worker(s *Server) {
	defer close(sess.dead)
	for {
		// Prefer quit over more queued work so shutdown isn't at the
		// mercy of select's random choice.
		select {
		case <-sess.quit:
			return
		default:
		}
		select {
		case j := <-sess.jobs:
			sess.runJob(s, j)
			// Snapshot between jobs, never inside one: capture is brief
			// (under sess.mu), the disk write happens with the lock
			// released, and queued jobs only wait for the capture.
			sess.snapshotNow(s, false)
		case <-sess.quit:
			return
		}
	}
}

// cancelCheckTicks is how many engine ticks run between cancellation and
// deadline checks: 256 ticks is 25.6 ms of simulated time at the default
// 100 µs step, well under a millisecond of wall time.
const cancelCheckTicks = 256

// runJob executes one advance: run the session's engine to an absolute
// target time in chunks of cancelCheckTicks ticks, checking the wall-clock
// deadline and the cancel flag between chunks. Running to an absolute
// target is byte-identical to a single engine.Run call, so chunking never
// perturbs determinism.
func (sess *Session) runJob(s *Server, j *Job) {
	s.jobsQueued.Add(-1)
	s.jobsRunning.Add(1)
	j.state.Store(jobRunning)
	sess.touch(s.cfg.Clock())
	deadline := s.cfg.Clock().Add(s.cfg.JobTimeout)

	sess.mu.Lock()
	eng := sess.agent.Node().Engine()
	start := eng.Now()
	target := start + j.MS*sim.Millisecond
	chunk := cancelCheckTicks * eng.Step()
	var final int32 = jobDone
	var jobErr error
	if sess.cancel.Load() {
		final = jobCanceled
		jobErr = fmt.Errorf("httpd: session %q shutting down", sess.name)
	}
	for final == jobDone && eng.Now() < target-1e-12 {
		eng.RunUntil(min(target, eng.Now()+chunk))
		switch {
		case eng.Now() >= target-1e-12:
			// Reached the target: the job is done whatever the flags say.
		case sess.cancel.Load():
			final = jobCanceled
			jobErr = fmt.Errorf("httpd: session %q shutting down", sess.name)
		case s.cfg.Clock().After(deadline):
			final = jobTimeout
			jobErr = fmt.Errorf("httpd: job exceeded %s", s.cfg.JobTimeout)
		}
	}
	now := eng.Now()
	if now > start {
		// Log-after-apply, still under the simulation lock and before
		// j.finish publishes the result: the job is durable before it is
		// visible. The record carries the engine clock actually reached —
		// not the requested span — so a job stopped early by a timeout or
		// cancel replays to exactly the same state.
		sess.logAdvance(s, now)
	}
	sess.storeNow()
	sess.syncDegraded(s)
	sess.mu.Unlock()

	j.finish(final, now, jobErr)
	sess.touch(s.cfg.Clock())
	s.jobsRunning.Add(-1)
	s.jobsDone.Add(1)
}

// Drain gracefully shuts the pool down: admission stops immediately (new
// sessions and new advance jobs answer 503), queued jobs run to
// completion until ctx expires — then running and queued jobs are
// canceled — and every session flushes its flight recorder (EventsDir)
// as it is destroyed. Only after Drain returns should the caller close
// the listener, so in-flight status polls keep answering during drain.
func (s *Server) Drain(ctx context.Context) {
	if !s.draining.CompareAndSwap(false, true) {
		return
	}
	s.stopJanitor()
	<-s.janDone
	s.emit(events.ServerDrain, map[string]any{"sessions": s.sessionsLive.Load()})

	// Phase 1: let queued work finish.
	for s.jobsQueued.Load()+s.jobsRunning.Load() > 0 {
		select {
		case <-ctx.Done():
			s.cancelAll()
		case <-time.After(5 * time.Millisecond):
		}
		if ctx.Err() != nil {
			break
		}
	}

	// Phase 2: tear every session down (cancels whatever remains), then end
	// the SSE streams, so watchers see the full shutdown narrative before
	// EOF.
	s.shutdownAll()
}

// cancelAll flags every session so running jobs stop at the next chunk.
func (s *Server) cancelAll() {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, sess := range s.sessions {
		if sess != nil {
			sess.cancel.Store(true)
		}
	}
}
