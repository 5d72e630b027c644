package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"kelp/internal/httpd"
)

// The serve workload drives an in-process kelpd over a loopback listener
// as a closed loop: each client sends its next request only after the
// previous answer arrived. Work comes in rounds of a fixed script, so every
// round does the same work whatever the speed.
const (
	clients = 2 // load goroutines, and the cap on connections
	// sessionsPerRound sessions are shared out to the clients as they
	// finish one; each session is driven by exactly one client.
	sessionsPerRound = 32
	// verifyPerRound sessions of each round are replayed serially and
	// compared byte for byte.
	verifyPerRound = 2
	// metricsEvery is the advance count between /metrics scrapes.
	metricsEvery = 10
	// spanHeader carries a client span's ID to the server-side wrapper.
	spanHeader = "X-Perfbench-Span"
)

// plan is a fixed per-session script.
type plan struct {
	units int     // advance units per session
	ms    float64 // simulated milliseconds per advance
	// faults maps a session index to its fault spec.
	faults map[int]string
}

// servePlan's 1 ms advances are 10 ticks each, so the server's request
// path, not simulation, dominates.
var servePlan = plan{units: 150, ms: 1}

// doer sends one request and returns its status and body.
type doer func(method, path, body string) (int, []byte, error)

// counters are one client's view of a round's load phase.
type counters struct {
	ok, failed int
	advance    []float64 // seconds, successful advances
	firstErr   string
}

func (c *counters) add(status int, err error, what string) bool {
	if err == nil && status >= 200 && status < 300 {
		c.ok++
		return true
	}
	c.failed++
	if c.firstErr == "" {
		c.firstErr = fmt.Sprintf("%s: status %d, %v", what, status, err)
	}
	return false
}

// script runs one session's fixed request sequence: create, admit CNN1
// and a Stitch antagonist, then units of one synchronous advance and one
// cursor poll of the session's events, with a /metrics scrape every
// metricsEvery advances. It stops at the first failed request.
func (p plan) script(do doer, name string, idx int, ctr *counters) {
	create := map[string]any{"name": name, "policy": "KP"}
	if f, ok := p.faults[idx]; ok {
		create["faults"] = f
	}
	body, _ := json.Marshal(create)
	st, _, err := do("POST", "/sessions", string(body))
	if !ctr.add(st, err, "create "+name) {
		return
	}
	for _, task := range []string{`{"ml":"CNN1","cores":2}`, `{"kind":"Stitch"}`} {
		st, _, err = do("POST", "/sessions/"+name+"/tasks", task)
		if !ctr.add(st, err, "admit "+name) {
			return
		}
	}
	adv := fmt.Sprintf(`{"ms":%g,"wait":true}`, p.ms)
	var since uint64
	for u := 1; u <= p.units; u++ {
		t0 := time.Now()
		st, _, err = do("POST", "/sessions/"+name+"/advance", adv)
		lat := time.Since(t0).Seconds()
		if !ctr.add(st, err, "advance "+name) {
			return
		}
		ctr.advance = append(ctr.advance, lat)
		var page struct {
			NextSince uint64 `json:"next_since"`
		}
		st, data, err := do("GET", fmt.Sprintf("/sessions/%s/events?since=%d", name, since), "")
		if err == nil {
			err = json.Unmarshal(data, &page)
		}
		if !ctr.add(st, err, "events "+name) {
			return
		}
		since = page.NextSince
		if u%metricsEvery == 0 {
			st, _, err = do("GET", "/sessions/"+name+"/metrics", "")
			if !ctr.add(st, err, "metrics "+name) {
				return
			}
		}
	}
}

// routeOf names the kelpd route a request path hits, for span names.
func routeOf(method, path string) string {
	switch {
	case method == "POST" && path == "/sessions":
		return "create"
	case strings.HasSuffix(path, "/tasks"):
		return "admit"
	case strings.HasSuffix(path, "/advance"):
		return "advance"
	case strings.HasSuffix(path, "/events"):
		return "events"
	case strings.HasSuffix(path, "/metrics"):
		return "metrics"
	}
	return "other"
}

// netClient sends requests over the loopback listener, recording a client
// span per request when traced.
func netClient(hc *http.Client, base string, tr *tracer) doer {
	return func(method, path, body string) (int, []byte, error) {
		req, err := http.NewRequest(method, base+path, strings.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		id := tr.id()
		if id != 0 {
			req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
		}
		t0 := time.Now()
		resp, err := hc.Do(req)
		if err != nil {
			return 0, nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		tr.record(id, 0, id, "client."+routeOf(method, req.URL.Path), t0, time.Now())
		return resp.StatusCode, data, err
	}
}

// inProcess calls a handler directly; output checks use it so they add no
// load-phase traffic.
func inProcess(h http.Handler) doer {
	return func(method, path, body string) (int, []byte, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		return rec.Code, rec.Body.Bytes(), nil
	}
}

// tracedHandler wraps kelpd's handler with a server span per request that
// carries a client span ID; the client span is its parent.
func tracedHandler(tr *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			next.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		next.ServeHTTP(w, r)
		tr.record(0, parent, parent, "server."+routeOf(r.Method, r.URL.Path), t0, time.Now())
	})
}

// healthz is the part of /healthz the benchmark reads.
type healthz struct {
	JobsDone    uint64 `json:"jobs_done"`
	ShedTotal   uint64 `json:"shed_total"`
	WriteErrors uint64 `json:"write_errors"`
	Persist     struct {
		RecoveredSessions int64  `json:"recovered_sessions"`
		QuarantinedFiles  int64  `json:"quarantined_files"`
		ReplayedRecords   int64  `json:"replayed_records"`
		PersistErrors     uint64 `json:"persist_errors"`
		Snapshots         uint64 `json:"snapshots"`
	} `json:"persist"`
}

func readHealthz(h http.Handler) (healthz, error) {
	var hz healthz
	st, data, _ := inProcess(h)("GET", "/healthz", "")
	if st != http.StatusOK {
		return hz, fmt.Errorf("/healthz answered %d", st)
	}
	return hz, json.Unmarshal(data, &hz)
}

func sessionName(i int) string { return fmt.Sprintf("s%02d", i) }

// live is a kelpd serving a loopback listener.
type live struct {
	srv *httpd.Server
	do  doer
	// stop closes the listener and the clients' connections and waits for
	// the serving goroutine; the server itself stays up for checks.
	stop func()
}

// start serves a new kelpd on a loopback listener; under a tracer every
// request gets a client span and a server span.
func start(cfg httpd.Config, tr *tracer) (*live, error) {
	srv, err := httpd.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	var handler http.Handler = srv.Handler()
	if tr != nil {
		handler = tracedHandler(tr, handler)
	}
	hs := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // ErrServerClosed, once stop closes it

	}()
	transport := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}
	return &live{
		srv: srv,
		do:  netClient(&http.Client{Timeout: time.Minute, Transport: transport}, "http://"+ln.Addr().String(), tr),
		stop: func() {
			hs.Close()
			<-served
			transport.CloseIdleConnections()
		},
	}, nil
}

// load runs the plan's script on sessionsPerRound sessions from the
// clients and records the load phase in st. Each client takes the next
// unstarted session when it finishes one, so both stay busy until the last
// session instead of one idling while the other finishes a longer share.
func (p plan) load(do doer, rep *report, st *passStat) {
	ctrs := make([]counters, clients)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < sessionsPerRound; i = int(next.Add(1)) - 1 {
				p.script(do, sessionName(i), i, &ctrs[g])
			}
		}(g)
	}
	wg.Wait()
	st.wall = time.Since(start).Seconds()
	for _, c := range ctrs {
		st.ops += c.ok
		st.lat = append(st.lat, c.advance...)
		rep.attempted += c.ok + c.failed
		rep.failed += c.failed
		if c.firstErr != "" {
			rep.fail("%s", c.firstErr)
		}
	}
}

// verifyReplay replays sampled sessions' scripts serially under new names
// and requires their /events and /metrics to be byte-identical to the
// originals: concurrency must not leak into any session's simulation.
func verifyReplay(rng *rand.Rand, do doer) error {
	for k, idx := range rng.Perm(sessionsPerRound)[:verifyPerRound] {
		orig, replay := sessionName(idx), fmt.Sprintf("verify-%d", k)
		var ctr counters
		servePlan.script(do, replay, idx, &ctr)
		if ctr.failed > 0 {
			return fmt.Errorf("verify replay of %s: %s", orig, ctr.firstErr)
		}
		for _, ep := range []string{"/events", "/metrics"} {
			_, want, _ := do("GET", "/sessions/"+orig+ep, "")
			_, got, _ := do("GET", "/sessions/"+replay+ep, "")
			if string(want) != string(got) {
				return fmt.Errorf("%s%s diverged from its serial replay", orig, ep)
			}
		}
	}
	return nil
}

// runServe runs rounds of the serve script until the measured time is up,
// then the durability phase.
func runServe(o opts, tr *tracer) (*report, error) {
	rep := newReport()
	rng := rand.New(rand.NewSource(o.seed)) // verify sampling
	var heaps []float64
	var last healthz // of the last traced round
	passes, err := runPasses(o, tr, func(ptr *tracer, st *passStat) error {
		t0 := time.Now()
		l, err := start(httpd.Config{SessionTTL: -1}, ptr) // the clients own every session's lifetime
		if err != nil {
			return err
		}
		st.setup = time.Since(t0).Seconds()
		servePlan.load(l.do, rep, st)
		l.stop()
		heaps = append(heaps, liveHeapMB())
		if err := verifyReplay(rng, inProcess(l.srv.Handler())); err != nil {
			rep.fail("%v", err)
		}
		l.srv.Close()
		hz, err := readHealthz(l.srv.Handler())
		if ptr != nil {
			last = hz
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	rep.note("serve: %d rounds, %d sessions of each replayed serially and compared", len(passes), verifyPerRound)
	d := &durability{plan: durablePlan(o.seed), rep: rep, traced: tr != nil}
	if err := d.run(); err != nil {
		return nil, fmt.Errorf("durability phase: %w", err)
	}
	fillMetrics(rep, passes, median(heaps))
	if tr == nil {
		return rep, nil
	}

	attribute(rep, tr)
	rep.layers["httpd.jobs_done"] = float64(last.JobsDone)
	rep.layers["httpd.shed_total"] = float64(last.ShedTotal)
	rep.layers["httpd.write_errors"] = float64(last.WriteErrors)
	d.layers()
	return rep, probeCell(rep)
}

// attribute splits every traced request's client latency into the server
// span (kelpd's handler) and the rest (transport: the client library,
// loopback TCP and net/http's connection handling). A client span with no
// server span nested inside it is unattributed and fails the run.
func attribute(rep *report, tr *tracer) {
	server := map[uint64]span{}
	var clientSpans []span
	for _, s := range tr.snapshot() {
		switch {
		case strings.HasPrefix(s.Name, "server."):
			server[s.Parent] = s
		case strings.HasPrefix(s.Name, "client."):
			clientSpans = append(clientSpans, s)
		}
	}
	perRoute := map[string][]float64{}
	var transport []float64
	unattributed := 0
	for _, c := range clientSpans {
		s, ok := server[c.ID]
		if !ok || s.start.Before(c.start) || s.end.After(c.end) {
			unattributed++
			continue
		}
		route := strings.TrimPrefix(s.Name, "server.")
		perRoute[route] = append(perRoute[route], float64(s.dur())/1e6)
		transport = append(transport, float64(c.dur()-s.dur())/1e6)
	}
	for _, route := range []string{"advance", "events", "metrics", "create", "admit"} {
		rep.layers["httpd.server_ms_p50."+route] = median(perRoute[route])
	}
	rep.layers["httpd.transport_ms_p50"] = median(transport)
	rep.layers["httpd.unattributed_requests"] = float64(unattributed)
	rep.note("httpd attribution: %d client spans, %d with a nested server span, %d unattributed",
		len(clientSpans), len(clientSpans)-unattributed, unattributed)
	if unattributed > 0 {
		rep.fail("httpd attribution: %d requests have no server span nested in their client span", unattributed)
	}
}
