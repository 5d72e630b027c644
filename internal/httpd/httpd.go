// Package httpd is kelpd's multi-tenant session server — the operational
// front a production Kelp deployment would expose to its cluster scheduler
// and monitoring stack. One process serves many independent simulation
// sessions, each owning its own managed node (agent, flight recorder,
// fault injector) behind its own lock, so sessions never contend and a
// heavy request against one session cannot stall another.
//
// The server protects itself under adversarial load: the session pool is
// bounded (503 on exhaustion), idle sessions are evicted on a TTL, each
// session's /advance runs through a bounded async job queue with
// backpressure (429 + Retry-After when full) and a per-job wall-clock
// timeout, and every request passes a middleware stack — panic recovery,
// per-client token-bucket rate limiting, request deadlines, bounded
// request bodies, structured access logging. Liveness (/healthz) answers
// from atomically updated counters and never takes a simulation lock.
//
// The simulation only advances when a session's advance job runs, and
// jobs execute FIFO on a per-session worker, so every session is
// deterministic and fully scriptable: the same request script replayed
// against a fresh session produces byte-identical /metrics and /events,
// no matter how many other sessions run concurrently.
//
//	GET    /                             embedded live dashboard (HTML, no external deps)
//	GET    /healthz                      liveness snapshot (lock-free)
//	GET    /events                       server control-plane events (server.*, session.*)
//	GET    /events/stream                server control-plane events, live (SSE)
//	GET    /sessions                     list sessions
//	POST   /sessions                     create a session {"name","policy","faults","event_capacity","seed"}
//	GET    /sessions/{name}              one session's status
//	DELETE /sessions/{name}              destroy a session
//	GET    /sessions/{name}/topology     machine shape (JSON)
//	GET    /sessions/{name}/tasks        tasks with current throughput (JSON)
//	POST   /sessions/{name}/tasks        admit a task ({"ml":"CNN1","cores":2} or a scenario.TaskSpec)
//	POST   /sessions/{name}/advance      {"ms":500[,"wait":true]} enqueue an advance job
//	GET    /sessions/{name}/jobs         recent jobs
//	GET    /sessions/{name}/jobs/{id}    one job's status
//	GET    /sessions/{name}/metrics      Prometheus text format
//	GET    /sessions/{name}/events       session flight recorder (?since/type/limit)
//	GET    /sessions/{name}/events/stream  session flight recorder, live (SSE)
//	GET    /sessions/{name}/fs/{path...} read a control file or list a directory
//	PUT    /sessions/{name}/fs/{path...} write a control file (body = value)
//	POST   /sessions/{name}/fs/{path...} mkdir
//	DELETE /sessions/{name}/fs/{path...} rmdir
//
// See docs/KELPD.md for the session lifecycle, queue and backpressure
// semantics, rate-limit knobs, and a worked curl session.
package httpd

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"kelp/internal/events"
	"kelp/internal/profile"
	"kelp/internal/scenario"
)

// Config parameterizes the session server. The zero value is usable:
// every field falls back to the documented default.
type Config struct {
	// MaxSessions bounds the session pool; creation past the bound is
	// answered 503. Default 1024.
	MaxSessions int
	// SessionTTL evicts sessions idle longer than this (no request and no
	// job activity). 0 selects the 15-minute default; negative disables
	// eviction.
	SessionTTL time.Duration
	// QueueDepth bounds each session's advance job queue; enqueue past
	// the bound is answered 429 + Retry-After. Default 32.
	QueueDepth int
	// JobTimeout caps one advance job's wall-clock execution; an expired
	// job stops at the next tick-chunk boundary with status "timeout".
	// Default 30s.
	JobTimeout time.Duration
	// RequestTimeout is the per-request context deadline applied by the
	// middleware stack (synchronous waits honor it). Default 10s.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds every request body via http.MaxBytesReader.
	// Default 1 MiB.
	MaxBodyBytes int64
	// RateLimit is the per-client token-bucket refill rate in requests
	// per second; 0 disables rate limiting. Clients are keyed by the
	// remote IP (see TrustClientHeader). /healthz is exempt.
	RateLimit float64
	// TrustClientHeader keys rate limiting and logging by the
	// X-Kelp-Client header when present instead of the remote IP. Enable
	// only when all peers are trusted (load drivers, tests, a fronting
	// proxy that sets the header itself): an untrusted client that picks
	// its own key can dodge its bucket and churn others out of the
	// bounded bucket table.
	TrustClientHeader bool
	// RateBurst is the bucket capacity; 0 selects 2×RateLimit (min 1).
	RateBurst int
	// EventCapacity sizes each session's flight-recorder ring when the
	// create request doesn't choose one. 0 selects events.DefaultCapacity.
	EventCapacity int
	// DefaultPolicy is the isolation policy for sessions that don't name
	// one ("BL", "CT", "KP-SD", "KP", ...). Empty selects "KP".
	DefaultPolicy string
	// DefaultFaults is the fault-injection spec applied to sessions that
	// don't carry their own.
	DefaultFaults string
	// Profile, when non-nil, is loaded into every session's profile
	// registry (the kelpd -profile flag).
	Profile *profile.Profile
	// EventsDir, when set, receives one <session>.jsonl flight-recorder
	// dump per session on destroy, TTL eviction, and drain.
	EventsDir string
	// PersistDir, when set, makes sessions crash-safe: every accepted
	// command appends to a per-session write-ahead log (fsynced before the
	// response is visible) and the full simulation state snapshots
	// periodically (checksummed, atomically renamed). New recovers every
	// surviving session from this directory at construction; damaged files
	// are quarantined into <PersistDir>/quarantine rather than refusing to
	// boot. See docs/KELPD.md, "Durability and crash recovery".
	PersistDir string
	// SnapshotEvery is the number of WAL records between snapshot attempts
	// for persisted sessions. 0 selects 16; negative disables snapshots
	// entirely (recovery replays the full command log, which is exact but
	// slower). Every session snapshots, faulted ones included; full replay
	// otherwise runs only when a snapshot is damaged.
	SnapshotEvery int
	// Clock supplies wall time for TTLs, rate limiting, job timeouts and
	// server-event timestamps; nil selects time.Now. Tests inject a fake.
	Clock func() time.Time
	// AccessLog, when non-nil, receives one structured line per request.
	AccessLog io.Writer
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 15 * time.Minute
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 32
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 30 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.RateBurst <= 0 {
		c.RateBurst = int(2 * c.RateLimit)
		if c.RateBurst < 1 {
			c.RateBurst = 1
		}
	}
	if c.EventCapacity <= 0 {
		c.EventCapacity = events.DefaultCapacity
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 16
	}
	if c.DefaultPolicy == "" {
		c.DefaultPolicy = "KP"
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Server is the multi-tenant HTTP front over a pool of managed nodes.
type Server struct {
	cfg   Config
	start time.Time
	rec   *events.Recorder // control-plane events: server.*, session.*
	limit *rateLimiter     // nil when rate limiting is off

	mu       sync.RWMutex // guards sessions and nameSeq only
	sessions map[string]*Session
	nameSeq  uint64

	draining atomic.Bool
	janitor  chan struct{} // closed to stop the TTL janitor
	janDone  chan struct{}

	// streamsDone is closed (once) after Drain/Close finishes tearing
	// sessions down — i.e. after the final session.destroy event has been
	// emitted — so open SSE handlers flush their tail and return before
	// the listener shuts down.
	streamsDone chan struct{}
	streamsOnce sync.Once

	// Lock-free health counters; /healthz reads only these.
	sessionsLive     atomic.Int64
	jobsQueued       atomic.Int64
	jobsRunning      atomic.Int64
	jobsDone         atomic.Uint64
	degradedSessions atomic.Int64
	shedTotal        atomic.Uint64
	panicsTotal      atomic.Uint64
	writeErrors      atomic.Uint64

	// Durability counters (zero when PersistDir is unset).
	recoveredSessions atomic.Int64  // sessions rebuilt at boot
	quarantinedFiles  atomic.Int64  // damaged files moved to quarantine
	replayedRecords   atomic.Int64  // WAL records applied during recovery
	persistErrors     atomic.Uint64 // failed WAL appends / snapshot writes
	snapshotsTotal    atomic.Uint64 // snapshots written
}

// New builds a session server. A TTL janitor goroutine runs until Close
// or Drain; tests with an injected clock call EvictIdle directly instead.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if _, err := scenario.ParsePolicy(cfg.DefaultPolicy); err != nil {
		return nil, fmt.Errorf("httpd: default policy: %w", err)
	}
	rec, err := events.New(events.DefaultCapacity)
	if err != nil {
		return nil, fmt.Errorf("httpd: %w", err)
	}
	s := &Server{
		cfg:         cfg,
		start:       cfg.Clock(),
		rec:         rec,
		sessions:    make(map[string]*Session),
		janitor:     make(chan struct{}),
		janDone:     make(chan struct{}),
		streamsDone: make(chan struct{}),
	}
	if cfg.RateLimit > 0 {
		s.limit = newRateLimiter(cfg.RateLimit, float64(cfg.RateBurst), cfg.Clock)
	}
	if cfg.PersistDir != "" {
		if err := s.recoverSessions(); err != nil {
			return nil, fmt.Errorf("httpd: persist dir: %w", err)
		}
	}
	if cfg.SessionTTL > 0 {
		go s.runJanitor()
	} else {
		close(s.janDone)
	}
	return s, nil
}

// Events returns the server's control-plane flight recorder (server.* and
// session.* events). Per-session simulation events live on each session's
// own recorder, served at /sessions/{name}/events.
func (s *Server) Events() *events.Recorder { return s.rec }

// nowSec is the server-event timestamp: seconds since server start, from
// the injected clock, so control-plane streams are deterministic in tests.
func (s *Server) nowSec() float64 { return s.cfg.Clock().Sub(s.start).Seconds() }

func (s *Server) emit(t events.Type, fields map[string]any) {
	s.rec.Emit(s.nowSec(), t, "server", fields)
}

// shed counts and records one refused request.
func (s *Server) shed(r *http.Request, reason string) {
	s.shedTotal.Add(1)
	s.emit(events.ServerShed, map[string]any{
		"path": r.URL.Path, "reason": reason, "client": s.clientKey(r),
	})
}

// Handler returns the full middleware-wrapped route table.
func (s *Server) Handler() http.Handler {
	return s.logging(s.recovery(s.rateLimitMW(s.timeoutMW(s.maxBytesMW(s.routes())))))
}

// routes is the raw router without middleware; the fuzz targets hit it
// directly so handler panics surface instead of being converted to 500s.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /{$}", s.handleDashboard)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /events", s.handleServerEvents)
	mux.HandleFunc("GET /events/stream", s.handleServerEventStream)
	mux.HandleFunc("GET /sessions", s.handleListSessions)
	mux.HandleFunc("POST /sessions", s.handleCreateSession)
	mux.HandleFunc("GET /sessions/{name}", s.withSession(handleSessionInfo))
	mux.HandleFunc("DELETE /sessions/{name}", s.handleDestroySession)
	mux.HandleFunc("GET /sessions/{name}/topology", s.withSession(handleTopology))
	mux.HandleFunc("GET /sessions/{name}/tasks", s.withSession(handleTasksGet))
	mux.HandleFunc("POST /sessions/{name}/tasks", s.withSession(handleTasksPost))
	mux.HandleFunc("POST /sessions/{name}/advance", s.withSession(handleAdvance))
	mux.HandleFunc("GET /sessions/{name}/jobs", s.withSession(handleJobsList))
	mux.HandleFunc("GET /sessions/{name}/jobs/{id}", s.withSession(handleJobGet))
	mux.HandleFunc("GET /sessions/{name}/metrics", s.withSession(handleMetrics))
	mux.HandleFunc("GET /sessions/{name}/events", s.withSession(handleEvents))
	mux.HandleFunc("GET /sessions/{name}/events/stream", s.withSession(handleSessionEventStream))
	mux.HandleFunc("/sessions/{name}/fs/{path...}", s.withSession(handleFS))
	return mux
}

// withSession resolves the {name} path segment to a live session, bumping
// its idle clock, and answers 404 for unknown names.
func (s *Server) withSession(h func(*Server, *Session, http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("name")
		s.mu.RLock()
		sess := s.sessions[name]
		s.mu.RUnlock()
		if sess == nil {
			s.writeErr(w, r, http.StatusNotFound, fmt.Errorf("httpd: no session %q", name))
			return
		}
		sess.touch(s.cfg.Clock())
		h(s, sess, w, r)
	}
}

// healthzBody is the /healthz response. Its fields are declared in key
// order, the order a map's encoding sorts them into.
type healthzBody struct {
	DegradedSessions int64          `json:"degraded_sessions"`
	JobsDone         uint64         `json:"jobs_done"`
	JobsQueued       int64          `json:"jobs_queued"`
	JobsRunning      int64          `json:"jobs_running"`
	MaxSessions      int            `json:"max_sessions"`
	Panics           uint64         `json:"panics"`
	Persist          healthzPersist `json:"persist"`
	Sessions         int64          `json:"sessions"`
	ShedTotal        uint64         `json:"shed_total"`
	Status           string         `json:"status"`
	UptimeSec        float64        `json:"uptime_sec"`
	WriteErrors      uint64         `json:"write_errors"`
}

// healthzPersist is the durability block of the /healthz response.
type healthzPersist struct {
	Enabled           bool   `json:"enabled"`
	PersistErrors     uint64 `json:"persist_errors"`
	QuarantinedFiles  int64  `json:"quarantined_files"`
	RecoveredSessions int64  `json:"recovered_sessions"`
	ReplayedRecords   int64  `json:"replayed_records"`
	Snapshots         uint64 `json:"snapshots"`
}

// handleHealthz is the liveness probe. It reads only atomic counters —
// never a session or pool lock — so it answers in microseconds even while
// every session is mid-advance. Status is "ok", "degraded" (≥1 session's
// control loop is in fail-safe), or "draining".
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.degradedSessions.Load() > 0 {
		status = "degraded"
	}
	if s.draining.Load() {
		status = "draining"
	}
	s.writeJSON(w, r, http.StatusOK, &healthzBody{
		Status:           status,
		Sessions:         s.sessionsLive.Load(),
		MaxSessions:      s.cfg.MaxSessions,
		JobsQueued:       s.jobsQueued.Load(),
		JobsRunning:      s.jobsRunning.Load(),
		JobsDone:         s.jobsDone.Load(),
		DegradedSessions: s.degradedSessions.Load(),
		ShedTotal:        s.shedTotal.Load(),
		Panics:           s.panicsTotal.Load(),
		WriteErrors:      s.writeErrors.Load(),
		UptimeSec:        s.nowSec(),
		Persist: healthzPersist{
			Enabled:           s.cfg.PersistDir != "",
			RecoveredSessions: s.recoveredSessions.Load(),
			QuarantinedFiles:  s.quarantinedFiles.Load(),
			ReplayedRecords:   s.replayedRecords.Load(),
			PersistErrors:     s.persistErrors.Load(),
			Snapshots:         s.snapshotsTotal.Load(),
		},
	})
}

// handleServerEvents serves the control-plane recorder with the same
// cursor semantics as the per-session /events endpoint.
func (s *Server) handleServerEvents(w http.ResponseWriter, r *http.Request) {
	serveEvents(s, s.rec, w, r)
}

// writeJSON encodes v; an encode/send failure (typically the client
// hanging up) is logged once per request via the response recorder,
// counted, and recorded as a server.write_error event.
func (s *Server) writeJSON(w http.ResponseWriter, r *http.Request, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	s.noteWriteFailure(w, r, json.NewEncoder(w).Encode(v))
}

// noteWriteFailure records one response-write failure through the
// once-per-request latch: the first failed write of a request bumps
// writeErrors and emits server.write_error; later failures of the same
// request (a hung-up client fails every subsequent write) stay silent.
// Every handler that writes a body — JSON, Prometheus text, fs reads, SSE
// frames — reports through here so client hangups are counted uniformly.
// A nil err is a no-op.
func (s *Server) noteWriteFailure(w http.ResponseWriter, r *http.Request, err error) {
	if err == nil {
		return
	}
	if rec, ok := w.(*responseRecorder); !ok || rec.noteWriteError() {
		s.writeErrors.Add(1)
		s.emit(events.ServerWriteError, map[string]any{
			"path": r.URL.Path, "error": err.Error(),
		})
	}
}

func (s *Server) writeErr(w http.ResponseWriter, r *http.Request, status int, err error) {
	s.writeJSON(w, r, status, map[string]string{"error": err.Error()})
}

// runJanitor sweeps idle sessions every SessionTTL/4 (bounded to [1s, 30s]).
func (s *Server) runJanitor() {
	defer close(s.janDone)
	period := s.cfg.SessionTTL / 4
	if period < time.Second {
		period = time.Second
	}
	if period > 30*time.Second {
		period = 30 * time.Second
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.EvictIdle()
		case <-s.janitor:
			return
		}
	}
}

// EvictIdle destroys every session idle longer than SessionTTL, flushing
// its flight recorder when EventsDir is set. It returns the evicted
// session names. The TTL janitor calls this periodically; tests with an
// injected clock call it directly.
func (s *Server) EvictIdle() []string {
	if s.cfg.SessionTTL <= 0 {
		return nil
	}
	now := s.cfg.Clock()
	var idle []*Session
	s.mu.RLock()
	for _, sess := range s.sessions {
		// nil marks a name reserved by an in-flight create; skip it.
		if sess != nil && now.Sub(sess.lastUsed()) > s.cfg.SessionTTL {
			idle = append(idle, sess)
		}
	}
	s.mu.RUnlock()
	names := make([]string, 0, len(idle))
	for _, sess := range idle {
		if s.destroy(sess, "ttl") {
			names = append(names, sess.name)
		}
	}
	return names
}

// destroy takes one session out of the pool and shuts it down, deleting
// its persist files. Files go first, while the pool map still owns the
// name (see retirePersist): once the name is free a same-name create may
// write a fresh WAL, and a removal after that would unlink the new
// incarnation's files. It reports false when a concurrent destroy or TTL
// eviction won the map race and owns the teardown.
func (s *Server) destroy(sess *Session, reason string) bool {
	sess.retirePersist()
	s.mu.Lock()
	if s.sessions[sess.name] != sess {
		s.mu.Unlock()
		return false
	}
	delete(s.sessions, sess.name)
	s.mu.Unlock()
	sess.shutdown(reason)
	return true
}

// Close stops the TTL janitor and destroys every session without waiting
// for queued jobs (they finish with status "canceled"). Use Drain for the
// graceful path.
func (s *Server) Close() {
	s.stopJanitor()
	s.shutdownAll()
}

// shutdownAll empties the pool, shuts every session down with reason
// "drain" (their persist files stay, for the next boot), then releases
// every open SSE handler: each flushes the events emitted so far, the
// session.destroy tail included, and returns. Names reserved by in-flight
// creates go with the map; those creates find their name gone and shed.
func (s *Server) shutdownAll() {
	s.mu.Lock()
	all := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		if sess != nil {
			all = append(all, sess)
		}
	}
	s.sessions = make(map[string]*Session)
	s.mu.Unlock()
	for _, sess := range all {
		sess.shutdown("drain")
	}
	s.streamsOnce.Do(func() { close(s.streamsDone) })
}

func (s *Server) stopJanitor() {
	select {
	case <-s.janitor:
	default:
		close(s.janitor)
	}
}
