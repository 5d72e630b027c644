package httpd

import (
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kelp/internal/agent"
	"kelp/internal/durable"
	"kelp/internal/events"
	"kelp/internal/experiments"
	"kelp/internal/faults"
	"kelp/internal/node"
	"kelp/internal/policy"
	"kelp/internal/profile"
	"kelp/internal/resctrlfs"
	"kelp/internal/scenario"
)

// Session is one named simulation in the pool: a managed node with its
// own agent, flight recorder, fault injector, control-file surface, job
// queue and worker. Sessions share nothing, so two sessions never
// contend on a lock and every session replays deterministically.
type Session struct {
	name    string
	policy  policy.Kind
	created time.Time
	srv     *Server

	mu    sync.Mutex // guards agent, fs, seq — the simulation state
	agent *agent.Agent
	fs    *resctrlfs.FS
	seq   int // batch-task naming sequence

	jobs    chan *Job     // bounded FIFO advance queue
	quit    chan struct{} // closed to stop the worker
	dead    chan struct{} // closed when the worker has exited
	gone    chan struct{} // closed by shutdown after the recorder is final; ends SSE streams
	cancel  atomic.Bool   // running/queued jobs stop at the next chunk
	jobMu   sync.Mutex    // guards table, order, nextID
	table   map[uint64]*Job
	order   []uint64 // insertion order, for pruning terminal jobs
	nextID  uint64
	stopped atomic.Bool // shutdown ran (idempotence guard)

	// Lock-free mirrors for /sessions listings and /healthz: updated by
	// the worker and the admission handlers, read without any lock.
	lastUsedNS atomic.Int64  // clock nanos of the last request or job
	nowBits    atomic.Uint64 // math.Float64bits of the node's sim time
	taskCount  atomic.Int64
	degraded   atomic.Bool

	// Durability (nil/zero when the server has no PersistDir). wal and
	// sinceSnap are guarded by mu — every append happens under the
	// simulation lock, so the in-memory state always corresponds exactly
	// to the WAL prefix [1, wal.Seq()]. The atomics mirror progress for
	// the lock-free info() listing.
	wal           *durable.WAL
	sinceSnap     int         // records appended since the last snapshot
	persistOn     bool        // a WAL was attached (set before pool insert, immutable)
	persistFailed atomic.Bool // an append failed: session continues ephemeral
	// persistMu serializes snapshot disk writes against persist-file
	// retirement (destroy/eviction/poisoning). It is only ever taken after
	// sess.mu is released or while holding it (sess.mu → persistMu), never
	// the other way around.
	persistMu   sync.Mutex
	persistGone bool // guarded by persistMu: files removed/quarantined, never write again
	persistSeq  atomic.Uint64
	snapSeq     atomic.Uint64
	snapAtNS    atomic.Int64
	// Set once during boot recovery, immutable afterwards.
	recoveredMode   string // "" | "snapshot" | "replay"
	recoveredReplay int    // WAL records applied at recovery
}

// keepTerminalJobs bounds each session's completed-job history.
const keepTerminalJobs = 64

// validSessionName matches DNS-label-style names so session names always
// embed cleanly in paths, metrics labels and file names.
func validSessionName(name string) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// createSessionRequest is the POST /sessions body. Every field is
// optional; zero values fall back to the server's configured defaults.
type createSessionRequest struct {
	Name          string `json:"name"`
	Policy        string `json:"policy"`
	Faults        string `json:"faults"`
	EventCapacity int    `json:"event_capacity"`
	Seed          int64  `json:"seed"`
	// SamplePeriodSec overrides the controller's control period
	// (default 0.1 s).
	SamplePeriodSec float64 `json:"sample_period_sec"`
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.shed(r, "draining")
		s.writeErr(w, r, http.StatusServiceUnavailable, fmt.Errorf("httpd: draining"))
		return
	}
	var req createSessionRequest
	if err := decodeJSONBody(r, &req); err != nil {
		s.writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	if req.Name != "" && !validSessionName(req.Name) {
		s.writeErr(w, r, http.StatusBadRequest,
			fmt.Errorf("httpd: session name %q: want 1-64 chars of [a-zA-Z0-9._-]", req.Name))
		return
	}

	s.mu.Lock()
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		s.shed(r, "pool_full")
		w.Header().Set("Retry-After", "1")
		s.writeErr(w, r, http.StatusServiceUnavailable,
			fmt.Errorf("httpd: session pool full (%d)", s.cfg.MaxSessions))
		return
	}
	// Existence checks use the comma-ok form throughout: a nil map value is
	// a name reserved by an in-flight create and must count as taken.
	name := req.Name
	if name == "" {
		for {
			s.nameSeq++
			name = fmt.Sprintf("s-%d", s.nameSeq)
			if _, taken := s.sessions[name]; !taken {
				break
			}
		}
	} else if _, taken := s.sessions[name]; taken {
		s.mu.Unlock()
		s.writeErr(w, r, http.StatusConflict, fmt.Errorf("httpd: session %q exists", name))
		return
	}
	// Reserve the name before the (comparatively slow) node build so two
	// racing creates of the same name can't both pass the lookup.
	s.sessions[name] = nil
	s.mu.Unlock()

	sess, err := s.buildSession(req, name)
	if err == nil && s.cfg.PersistDir != "" {
		// The write-ahead log is born before the session is visible in the
		// pool, so no command can race past it; the create record is
		// durable before the 201 is sent.
		sess.initWAL(s, req)
	}
	if err != nil {
		s.mu.Lock()
		// Only release our own placeholder: if the reservation is gone
		// (Drain replaced the map), there is nothing of ours to remove.
		if cur, reserved := s.sessions[name]; reserved && cur == nil {
			delete(s.sessions, name)
		}
		s.mu.Unlock()
		s.writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	_, reserved := s.sessions[name]
	if reserved {
		s.sessions[name] = sess
	}
	s.mu.Unlock()
	s.sessionsLive.Add(1)
	if !reserved {
		// Drain swept the reservation while the node was being built; don't
		// resurrect a session past drain — tear it down and shed. The client
		// gets 503 and the session never existed publicly, so the WAL that
		// initWAL just created must not survive either: a "drain" shutdown
		// keeps files, which would resurrect this never-acknowledged session
		// as a ghost at the next boot.
		sess.retirePersist()
		sess.shutdown("drain")
		s.shed(r, "draining")
		s.writeErr(w, r, http.StatusServiceUnavailable, fmt.Errorf("httpd: draining"))
		return
	}
	s.emit(events.SessionCreate, map[string]any{"session": name, "policy": sess.policy.String()})
	s.writeJSON(w, r, http.StatusCreated, sess.info(s.cfg.Clock()))
}

// buildSession constructs a session (agent, node, control-file surface,
// worker) from a create request. It does not touch the pool map or the
// persist dir — the live create path and boot-time recovery share it, so a
// recovered session is built by exactly the code that built the original.
func (s *Server) buildSession(req createSessionRequest, name string) (*Session, error) {
	polName := req.Policy
	if polName == "" {
		polName = s.cfg.DefaultPolicy
	}
	pol, err := scenario.ParsePolicy(polName)
	if err != nil {
		return nil, err
	}
	faultsSpec := req.Faults
	if faultsSpec == "" {
		faultsSpec = s.cfg.DefaultFaults
	}
	spec, err := faults.ParseSpec(faultsSpec)
	if err != nil {
		return nil, err
	}
	if req.SamplePeriodSec < 0 || math.IsNaN(req.SamplePeriodSec) || math.IsInf(req.SamplePeriodSec, 0) {
		return nil, fmt.Errorf("httpd: sample_period_sec = %v", req.SamplePeriodSec)
	}
	capacity := req.EventCapacity
	if capacity <= 0 {
		capacity = s.cfg.EventCapacity
	}
	nodeCfg := node.DefaultConfig()
	if req.Seed != 0 {
		nodeCfg.Seed = req.Seed
	}
	profiles := profile.NewRegistry()
	if s.cfg.Profile != nil {
		if err := profiles.Put(*s.cfg.Profile); err != nil {
			return nil, err
		}
	}
	opts := policy.DefaultOptions()
	if req.SamplePeriodSec > 0 {
		opts.SamplePeriod = req.SamplePeriodSec
	}
	a, err := agent.New(agent.Config{
		Node:          nodeCfg,
		Policy:        pol,
		Options:       opts,
		Profiles:      profiles,
		EventCapacity: capacity,
		Faults:        spec,
	})
	if err != nil {
		return nil, err
	}
	return newSession(s, name, pol, a)
}

func newSession(s *Server, name string, pol policy.Kind, a *agent.Agent) (*Session, error) {
	fs, err := resctrlfs.New(a.Node())
	if err != nil {
		return nil, err
	}
	sess := &Session{
		name:    name,
		policy:  pol,
		created: s.cfg.Clock(),
		srv:     s,
		agent:   a,
		fs:      fs,
		jobs:    make(chan *Job, s.cfg.QueueDepth),
		quit:    make(chan struct{}),
		dead:    make(chan struct{}),
		gone:    make(chan struct{}),
		table:   make(map[uint64]*Job),
	}
	sess.touch(sess.created)
	sess.storeNow()
	go sess.worker(s)
	return sess, nil
}

func (sess *Session) touch(now time.Time) { sess.lastUsedNS.Store(now.UnixNano()) }

func (sess *Session) lastUsed() time.Time { return time.Unix(0, sess.lastUsedNS.Load()) }

// storeNow mirrors the node's simulated clock into an atomic so listings
// and job statuses read it without the simulation lock. Callers hold
// sess.mu (or are the worker between jobs).
func (sess *Session) storeNow() {
	sess.nowBits.Store(math.Float64bits(sess.agent.Node().Now()))
}

func (sess *Session) simNow() float64 { return math.Float64frombits(sess.nowBits.Load()) }

// syncDegraded reconciles the session's lock-free degraded mirror (and
// the server-wide counter) with the control loop's actual state. Called
// with sess.mu held. Once shutdown has run it is a no-op: shutdown
// releases the session's contribution to the server-wide gauge under
// sess.mu, so a straggling handler that still holds the session pointer
// must not re-increment it.
func (sess *Session) syncDegraded(s *Server) {
	if sess.stopped.Load() {
		return
	}
	cur := sess.agent.Degraded()
	if sess.degraded.CompareAndSwap(!cur, cur) {
		if cur {
			s.degradedSessions.Add(1)
		} else {
			s.degradedSessions.Add(-1)
		}
	}
}

// info renders the lock-free status listing entry.
func (sess *Session) info(now time.Time) map[string]any {
	out := map[string]any{
		"name":        sess.name,
		"policy":      sess.policy.String(),
		"now_sec":     sess.simNow(),
		"tasks":       sess.taskCount.Load(),
		"jobs_queued": len(sess.jobs),
		"degraded":    sess.degraded.Load(),
		"idle_sec":    now.Sub(sess.lastUsed()).Seconds(),
	}
	if sess.persistOn {
		p := map[string]any{
			"persisted_seq": sess.persistSeq.Load(),
			"failed":        sess.persistFailed.Load(),
		}
		if sq := sess.snapSeq.Load(); sq > 0 {
			p["snapshot_seq"] = sq
			p["snapshot_age_sec"] = now.Sub(time.Unix(0, sess.snapAtNS.Load())).Seconds()
		}
		if sess.recoveredMode != "" {
			p["recovered_mode"] = sess.recoveredMode
			p["recovered_replayed"] = sess.recoveredReplay
		}
		out["persist"] = p
	}
	return out
}

// shutdown cancels outstanding work, stops the worker, flushes the
// flight recorder, and releases the session's health counters. The
// session must already be out of the pool map. Idempotent.
func (sess *Session) shutdown(reason string) {
	s := sess.srv
	if !sess.stopped.CompareAndSwap(false, true) {
		return
	}
	sess.cancel.Store(true)
	close(sess.quit)
	<-sess.dead
	// The worker is dead and handleAdvance rejects once stopped is set (it
	// checks under jobMu), so this sweep sees every job that will ever be
	// enqueued; the channel is drained so queued Jobs don't outlive the
	// session.
	canceled := 0
	sess.jobMu.Lock()
	for _, id := range sess.order {
		if j := sess.table[id]; j != nil && !j.terminal() {
			j.finish(jobCanceled, 0, nil)
			canceled++
		}
	}
drain:
	for {
		select {
		case <-sess.jobs:
		default:
			break drain
		}
	}
	sess.jobMu.Unlock()
	if canceled > 0 {
		s.jobsQueued.Add(int64(-canceled))
		s.jobsDone.Add(uint64(canceled))
	}
	// CAS under sess.mu so this and a straggling handler's syncDegraded
	// can't double-count: any flip that passed the stopped check completes
	// before the reset, and later calls see stopped and no-op.
	sess.mu.Lock()
	if sess.degraded.CompareAndSwap(true, false) {
		s.degradedSessions.Add(-1)
	}
	sess.mu.Unlock()
	s.sessionsLive.Add(-1)
	if s.cfg.EventsDir != "" {
		sess.flushEvents(s.cfg.EventsDir)
	}
	// Persistence teardown. The worker is dead and admission handlers see
	// stopped, so appends have ceased. An explicit destroy (api) and a TTL
	// eviction delete the session's files — a destroyed session must not
	// resurrect at the next boot. Those callers retire the files *before*
	// releasing the name from the pool map (see retirePersist); the call
	// here is an idempotent backstop. Drain keeps the files (surviving a
	// restart is the whole point) after one final snapshot attempt.
	if sess.wal != nil {
		if reason == "drain" {
			sess.snapshotNow(s, true)
		}
		sess.mu.Lock()
		sess.wal.Close()
		sess.wal = nil
		sess.mu.Unlock()
		if reason != "drain" {
			sess.retirePersist()
		}
	}
	s.emit(events.SessionDestroy, map[string]any{
		"session": sess.name, "reason": reason, "jobs_canceled": canceled,
	})
	// Last: the worker is dead and the recorder is final, so open SSE
	// streams on this session flush their tail and return EOF.
	close(sess.gone)
}

// flushEvents writes the session's recorder to <dir>/<name>.jsonl.
func (sess *Session) flushEvents(dir string) {
	sess.mu.Lock()
	evs := sess.agent.Events().Events()
	sess.mu.Unlock()
	f, err := os.Create(filepath.Join(dir, sess.name+".jsonl"))
	if err != nil {
		return
	}
	defer f.Close()
	_ = events.WriteJSONL(f, evs)
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	now := s.cfg.Clock()
	s.mu.RLock()
	out := make([]map[string]any, 0, len(s.sessions))
	for _, sess := range s.sessions {
		if sess != nil {
			out = append(out, sess.info(now))
		}
	}
	s.mu.RUnlock()
	sortSessionInfos(out)
	s.writeJSON(w, r, http.StatusOK, map[string]any{
		"sessions": out, "count": len(out), "capacity": s.cfg.MaxSessions,
	})
}

// sortSessionInfos orders listings by name. This runs on every GET
// /sessions over the whole pool, so it must stay O(n log n): at the
// 1024-session default the insertion sort it replaced performed ~500k
// comparisons per list in the reverse-ordered worst case.
// BenchmarkSortSessionInfos guards the shape.
func sortSessionInfos(infos []map[string]any) {
	sort.Slice(infos, func(i, j int) bool {
		return infos[i]["name"].(string) < infos[j]["name"].(string)
	})
}

func (s *Server) handleDestroySession(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.RLock()
	sess := s.sessions[name]
	s.mu.RUnlock()
	if sess == nil {
		s.writeErr(w, r, http.StatusNotFound, fmt.Errorf("httpd: no session %q", name))
		return
	}
	// Persist files go away while the name is still owned by the pool map.
	// Releasing the name first would open a window where a same-name create
	// writes a fresh WAL that this session's teardown then unlinks —
	// silently dropping the new incarnation's acked commands at the next
	// restart.
	sess.retirePersist()
	s.mu.Lock()
	if s.sessions[name] != sess {
		// Lost the race with a concurrent destroy or TTL eviction; the
		// winner owns the teardown.
		s.mu.Unlock()
		s.writeErr(w, r, http.StatusNotFound, fmt.Errorf("httpd: no session %q", name))
		return
	}
	delete(s.sessions, name)
	s.mu.Unlock()
	sess.shutdown("api")
	s.writeJSON(w, r, http.StatusOK, map[string]string{"destroyed": name})
}

func handleSessionInfo(s *Server, sess *Session, w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, r, http.StatusOK, sess.info(s.cfg.Clock()))
}

func handleTopology(s *Server, sess *Session, w http.ResponseWriter, r *http.Request) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	n := sess.agent.Node()
	topo := n.Processor().Topology()
	s.writeJSON(w, r, http.StatusOK, map[string]any{
		"sockets":               topo.Sockets,
		"cores_per_socket":      topo.CoresPerSocket,
		"subdomains_per_socket": topo.SubdomainsPerSocket,
		"snc_enabled":           n.Memory().Config().SNCEnabled,
		"now_sec":               n.Now(),
	})
}

// admitRequest is the POST /sessions/{name}/tasks body: either an
// accelerated task ({"ml": "CNN1", "cores": 2}) or a batch task
// (scenario.TaskSpec fields).
type admitRequest struct {
	ML    string `json:"ml,omitempty"`
	Cores int    `json:"cores,omitempty"`
	scenario.TaskSpec
}

func handleTasksGet(s *Server, sess *Session, w http.ResponseWriter, r *http.Request) {
	sess.mu.Lock()
	n := sess.agent.Node()
	type taskInfo struct {
		Name       string  `json:"name"`
		Throughput float64 `json:"throughput"`
	}
	out := []taskInfo{}
	for _, t := range n.Tasks() {
		out = append(out, taskInfo{Name: t.Name(), Throughput: t.Throughput(n.Now())})
	}
	sess.mu.Unlock()
	s.writeJSON(w, r, http.StatusOK, out)
}

func handleTasksPost(s *Server, sess *Session, w http.ResponseWriter, r *http.Request) {
	var req admitRequest
	if err := decodeJSONBody(r, &req); err != nil {
		s.writeErr(w, r, http.StatusBadRequest, err)
		return
	}
	sess.mu.Lock()
	// Log-before-apply: the admission is durable before any state mutates
	// and before the response is visible. Failed admissions are logged too
	// — the outcome is a deterministic function of session state, and a
	// rejection's agent.reject event must reappear on replay.
	sess.logAdmit(s, req)
	status, body := sess.applyAdmit(s, req)
	sess.mu.Unlock()
	s.writeJSON(w, r, status, body)
}

// applyAdmit admits one task (ML or batch), mutating session state under
// sess.mu (held by the caller) and returning the HTTP status and response
// body. Boot-time recovery replays logged admissions through this same
// function, so live and replayed admissions take identical code paths.
func (sess *Session) applyAdmit(s *Server, req admitRequest) (int, any) {
	if req.ML != "" {
		ml, err := scenario.ParseML(req.ML)
		if err != nil {
			return http.StatusBadRequest, errBody(err)
		}
		cores := req.Cores
		if cores == 0 {
			cores = ml.MLCores()
		}
		task, err := buildMLTask(sess.agent, ml, cores)
		if err != nil {
			return http.StatusConflict, errBody(err)
		}
		sess.taskCount.Add(1)
		sess.syncDegraded(s)
		return http.StatusCreated, map[string]string{"admitted": task}
	}
	spec := scenario.Spec{ML: "CNN1", Policy: "BL", CPU: []scenario.TaskSpec{req.TaskSpec}}
	resolved, err := spec.Resolve()
	if err != nil {
		return http.StatusBadRequest, errBody(err)
	}
	sess.seq++
	task, err := experiments.NewCPUTask(resolved.CPU[0], sess.seq,
		sess.agent.Node().Config().Memory.LLCSize)
	if err != nil {
		return http.StatusBadRequest, errBody(err)
	}
	if err := sess.agent.AdmitBatch(task); err != nil {
		return http.StatusConflict, errBody(err)
	}
	sess.taskCount.Add(1)
	return http.StatusCreated, map[string]string{"admitted": task.Name()}
}

// errBody matches writeErr's JSON shape for handlers that return bodies.
func errBody(err error) map[string]string { return map[string]string{"error": err.Error()} }

// buildMLTask constructs and admits the accelerated task via the agent.
func buildMLTask(a *agent.Agent, ml experiments.MLKind, cores int) (string, error) {
	task, err := ml.NewTask(a.Node())
	if err != nil {
		return "", err
	}
	if err := a.AdmitML(task, cores); err != nil {
		return "", err
	}
	return task.Name(), nil
}

func handleMetrics(s *Server, sess *Session, w http.ResponseWriter, r *http.Request) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	n := sess.agent.Node()
	// Peek: scraping must not consume the Kelp runtime's counter window.
	sample := n.Monitor().Peek()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	// All writes go through the textWriter so a client hangup mid-scrape
	// lands in the write-error latch and counter, like every JSON response.
	tw := &textWriter{w: w}
	fmt.Fprintf(tw, "# HELP kelp_socket_bandwidth_bytes Socket DRAM bandwidth, bytes/s.\n")
	fmt.Fprintf(tw, "# TYPE kelp_socket_bandwidth_bytes gauge\n")
	for sock := range sample.SocketBW {
		fmt.Fprintf(tw, "kelp_socket_bandwidth_bytes{socket=\"%d\"} %.0f\n", sock, sample.SocketBW[sock])
	}
	fmt.Fprintf(tw, "# HELP kelp_socket_latency_seconds Loaded memory latency.\n")
	fmt.Fprintf(tw, "# TYPE kelp_socket_latency_seconds gauge\n")
	for sock := range sample.SocketLatency {
		fmt.Fprintf(tw, "kelp_socket_latency_seconds{socket=\"%d\"} %.3e\n", sock, sample.SocketLatency[sock])
	}
	fmt.Fprintf(tw, "# HELP kelp_socket_saturation Distress signal duty cycle.\n")
	fmt.Fprintf(tw, "# TYPE kelp_socket_saturation gauge\n")
	for sock := range sample.SocketSaturation {
		fmt.Fprintf(tw, "kelp_socket_saturation{socket=\"%d\"} %.4f\n", sock, sample.SocketSaturation[sock])
	}
	fmt.Fprintf(tw, "# HELP kelp_task_throughput Task work rate, units/s.\n")
	fmt.Fprintf(tw, "# TYPE kelp_task_throughput gauge\n")
	for _, t := range n.Tasks() {
		fmt.Fprintf(tw, "kelp_task_throughput{task=%q} %.3f\n", t.Name(), t.Throughput(n.Now()))
	}
	if a := sess.agent.Applied(); a != nil && a.Runtime != nil {
		fmt.Fprintf(tw, "# HELP kelp_runtime_actuator Kelp actuator values.\n")
		fmt.Fprintf(tw, "# TYPE kelp_runtime_actuator gauge\n")
		fmt.Fprintf(tw, "kelp_runtime_actuator{name=\"low_cores\"} %d\n", a.Runtime.LowCores())
		fmt.Fprintf(tw, "kelp_runtime_actuator{name=\"low_prefetchers\"} %d\n", a.Runtime.LowPrefetchers())
		fmt.Fprintf(tw, "kelp_runtime_actuator{name=\"backfill_cores\"} %d\n", a.Runtime.BackfillCores())
	}
	s.noteWriteFailure(w, r, tw.err)
}

func handleEvents(s *Server, sess *Session, w http.ResponseWriter, r *http.Request) {
	serveEvents(s, sess.agent.Events(), w, r)
}

// serveEvents renders any recorder with cursor semantics. Query params:
//
//	since=N   only events with seq > N (cursor; default 0 = everything buffered)
//	type=T    repeatable event-type filter
//	limit=K   cap the response to the first K matching events
//
// The response carries next_since, the seq of the last event returned (or
// the request's since when nothing matched), so clients poll
// incrementally, and oldest_seq, the seq of the oldest event still
// buffered: a poller whose since cursor is below oldest_seq-1 has provably
// missed the evicted span (a detectable gap — the lifetime dropped counter
// alone cannot distinguish "events I already saw were evicted" from
// "events I never saw are gone"). The recorder is internally locked; no
// session or pool lock is taken here.
func serveEvents(s *Server, rec *events.Recorder, w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var since uint64
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.writeErr(w, r, http.StatusBadRequest, fmt.Errorf("since: %w", err))
			return
		}
		since = n
	}
	limit := 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			s.writeErr(w, r, http.StatusBadRequest, fmt.Errorf("limit = %q, want a positive integer", v))
			return
		}
		limit = n
	}
	var types []events.Type
	for _, v := range q["type"] {
		types = append(types, events.Type(v))
	}
	evs := rec.SinceLimit(since, limit, types...)
	dropped := rec.Dropped()
	next := since
	if len(evs) > 0 {
		next = evs[len(evs)-1].Seq
	}
	if evs == nil {
		evs = []events.Event{}
	}
	s.writeJSON(w, r, http.StatusOK, map[string]any{
		"events":     evs,
		"next_since": next,
		"dropped":    dropped,
		"oldest_seq": rec.OldestSeq(),
	})
}

func handleFS(s *Server, sess *Session, w http.ResponseWriter, r *http.Request) {
	raw := r.PathValue("path")
	switch r.Method {
	case http.MethodGet:
		sess.mu.Lock()
		defer sess.mu.Unlock()
		path := "/" + strings.TrimSuffix(raw, "/")
		// Try as a file, fall back to directory listing.
		if data, err := sess.fs.ReadFile(path); err == nil {
			w.Header().Set("Content-Type", "text/plain")
			tw := &textWriter{w: w}
			fmt.Fprintln(tw, data)
			s.noteWriteFailure(w, r, tw.err)
			return
		}
		entries, err := sess.fs.ReadDir(path)
		if err != nil {
			s.writeErr(w, r, http.StatusNotFound, err)
			return
		}
		s.writeJSON(w, r, http.StatusOK, entries)
	case http.MethodPut, http.MethodPost, http.MethodDelete:
		var body []byte
		if r.Method == http.MethodPut {
			var err error
			if body, err = readBody(r); err != nil {
				s.writeErr(w, r, http.StatusBadRequest, err)
				return
			}
		}
		sess.mu.Lock()
		// Log-before-apply, like task admission: control-file writes steer
		// the simulation, so they are part of the replayed command stream.
		sess.logFS(s, r.Method, raw, body)
		status, out := sess.applyFS(r.Method, raw, body)
		sess.mu.Unlock()
		s.writeJSON(w, r, status, out)
	default:
		s.writeErr(w, r, http.StatusMethodNotAllowed, fmt.Errorf("method %s", r.Method))
	}
}

// applyFS executes one mutating control-file request under sess.mu (held
// by the caller). Recovery replays logged fs records through this same
// function.
func (sess *Session) applyFS(method, raw string, body []byte) (int, any) {
	path := "/" + strings.TrimSuffix(raw, "/")
	switch method {
	case http.MethodPut:
		if err := sess.fs.WriteFile(path, string(body)); err != nil {
			return http.StatusBadRequest, errBody(err)
		}
		return http.StatusOK, map[string]string{"written": path}
	case http.MethodPost:
		if err := sess.fs.Mkdir(path); err != nil {
			return http.StatusBadRequest, errBody(err)
		}
		return http.StatusCreated, map[string]string{"created": path}
	case http.MethodDelete:
		if err := sess.fs.Rmdir(path); err != nil {
			return http.StatusBadRequest, errBody(err)
		}
		return http.StatusOK, map[string]string{"removed": path}
	}
	return http.StatusMethodNotAllowed, errBody(fmt.Errorf("method %s", method))
}
