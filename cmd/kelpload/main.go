// Command kelpload drives a kelpd session server with concurrent clients
// and reports latency percentiles, shed rates, and failures. It is the
// repo's overload harness: point it at a small session pool or a strict
// rate limit and watch the server answer 429/503 instead of falling over.
//
// With -inprocess it boots its own kelpd server on a loopback listener and
// drives that, so one command (and one `go run -race`) exercises the full
// client → TCP → middleware → session-worker path:
//
//	go run ./cmd/kelpload -inprocess -sessions 500 -clients 8 \
//	    -requests 3 -ms 20 -admit -check -verify 2
//
// Each session is owned by exactly one client and receives an identical
// request script (create, optionally admit CNN1 + a Stitch antagonist,
// then -requests synchronous advances of -ms simulated milliseconds), so
// every session's flight recorder must come out byte-identical no matter
// how the clients interleave. -verify N replays N sampled sessions
// serially afterwards and fails if /events or /metrics diverge.
//
// -stream N verifies live streaming after the run: N sessions' SSE feeds
// (/events/stream) must be byte-identical to cursor polling, with gap
// detection via oldest_seq, plus a dashboard smoke test (GET / serves the
// embedded page; the server-level stream delivers an event).
//
// -check turns the report into a verdict: exit 1 on any transport error,
// any non-shed 5xx, fewer than -min-shed shed requests, or a heap above
// -max-heap-mb. Shed answers (429, and 503 with Retry-After) are counted
// separately — under deliberate overload they are the correct behavior.
//
// Crash recovery is checked elsewhere: internal/httpd's TestCrashInjection
// harness SIGKILLs a persisted server mid-script and byte-compares every
// recovered session (docs/KELPD.md, "Durability and crash recovery").
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"kelp/internal/httpd"
)

func main() {
	var c cfg
	flag.StringVar(&c.addr, "addr", "", "kelpd base URL (e.g. http://localhost:8080); empty with -inprocess")
	flag.BoolVar(&c.inprocess, "inprocess", false, "boot an in-process kelpd on a loopback listener and drive it")
	flag.IntVar(&c.sessions, "sessions", 100, "sessions to create")
	flag.IntVar(&c.clients, "clients", 8, "concurrent client goroutines")
	flag.IntVar(&c.requests, "requests", 4, "advance requests per session")
	flag.Float64Var(&c.ms, "ms", 20, "simulated milliseconds per advance")
	flag.BoolVar(&c.admit, "admit", false, "admit CNN1 + a Stitch antagonist into every session")
	flag.StringVar(&c.policy, "policy", "KP", "session policy")
	flag.Int64Var(&c.seed, "seed", 1, "seed for verify sampling")
	flag.IntVar(&c.verify, "verify", 0, "replay N sampled sessions serially and compare events+metrics")
	flag.IntVar(&c.stream, "stream", 0, "verify N sessions' SSE streams byte-identical to cursor polling, plus a dashboard smoke test")
	flag.BoolVar(&c.check, "check", false, "exit nonzero on failures, unexpected sheds, or heap overrun")
	flag.IntVar(&c.minShed, "min-shed", 0, "with -check, require at least this many shed requests")
	flag.IntVar(&c.maxHeapMB, "max-heap-mb", 0, "with -check, fail if post-run heap exceeds this (0 = no bound)")
	flag.IntVar(&c.maxSessions, "max-sessions", 0, "in-process pool capacity (0 = fit all sessions)")
	flag.IntVar(&c.queueDepth, "queue-depth", 0, "in-process per-session queue depth (0 = default)")
	flag.Float64Var(&c.rate, "rate", 0, "in-process per-client rate limit, requests/s (0 = off)")
	flag.Parse()
	if err := run(&c, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kelpload:", err)
		os.Exit(1)
	}
}

type cfg struct {
	addr                        string
	inprocess, admit, check     bool
	sessions, clients, requests int
	verify, minShed, maxHeapMB  int
	stream                      int
	maxSessions, queueDepth     int
	ms, rate                    float64
	policy                      string
	seed                        int64
}

// counters aggregates one client's view of the run.
type counters struct {
	ok, shed, clientErr, serverErr, transport int
	latencies                                 []float64 // seconds, successful advances only
}

func (c *counters) add(o counters) {
	c.ok += o.ok
	c.shed += o.shed
	c.clientErr += o.clientErr
	c.serverErr += o.serverErr
	c.transport += o.transport
	c.latencies = append(c.latencies, o.latencies...)
}

func run(c *cfg, out io.Writer) error {
	if c.sessions < 1 || c.clients < 1 || c.requests < 0 {
		return fmt.Errorf("need -sessions >= 1, -clients >= 1, -requests >= 0")
	}
	base := c.addr
	if c.inprocess {
		maxSessions := c.maxSessions
		if maxSessions == 0 {
			maxSessions = c.sessions + c.verify + 1
		}
		srv, err := httpd.New(httpd.Config{
			MaxSessions:   maxSessions,
			QueueDepth:    c.queueDepth,
			RateLimit:     c.rate,
			DefaultPolicy: c.policy,
			SessionTTL:    -1, // the driver controls every session's lifetime
			// The driver is the only peer; honor its per-session
			// X-Kelp-Client tags as rate-limit identities.
			TrustClientHeader: true,
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(ln)
		defer hs.Close()
		base = "http://" + ln.Addr().String()
	}
	if base == "" {
		return fmt.Errorf("need -addr or -inprocess")
	}
	base = strings.TrimSuffix(base, "/")
	client := &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        c.clients * 2,
			MaxIdleConnsPerHost: c.clients * 2,
		},
	}

	// Fan out: client g owns sessions g, g+clients, g+2*clients, ... Each
	// session sees an identical script, so per-session results must be
	// independent of the interleaving.
	start := time.Now()
	results := make([]counters, c.clients)
	var wg sync.WaitGroup
	for g := 0; g < c.clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < c.sessions; i += c.clients {
				driveSession(client, base, fmt.Sprintf("load-%d", i), c, &results[g])
			}
		}(g)
	}
	wg.Wait()
	wall := time.Since(start)

	var total counters
	for i := range results {
		total.add(results[i])
	}
	report(out, c, &total, wall)

	var verifyErr error
	if c.verify > 0 {
		verifyErr = verifySessions(out, client, base, c)
	}
	if verifyErr == nil && c.stream > 0 {
		verifyErr = verifyStreams(out, client, base, c)
	}

	if c.check {
		switch {
		case total.transport > 0:
			return fmt.Errorf("check: %d transport errors", total.transport)
		case total.serverErr > 0:
			return fmt.Errorf("check: %d non-shed 5xx answers", total.serverErr)
		case total.clientErr > 0:
			return fmt.Errorf("check: %d 4xx answers to well-formed requests", total.clientErr)
		case total.shed < c.minShed:
			return fmt.Errorf("check: %d shed, want >= %d", total.shed, c.minShed)
		case verifyErr != nil:
			return verifyErr
		}
		if c.maxHeapMB > 0 {
			runtime.GC()
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			if heapMB := int(m.HeapAlloc >> 20); heapMB > c.maxHeapMB {
				return fmt.Errorf("check: heap %d MiB > %d MiB", heapMB, c.maxHeapMB)
			}
		}
	}
	return verifyErr
}

// sessionScript is the request script every session receives, in order.
func sessionScript(name string, c *cfg) []struct{ method, path, body string } {
	steps := []struct{ method, path, body string }{
		{"POST", "/sessions", fmt.Sprintf(`{"name":%q,"policy":%q}`, name, c.policy)},
	}
	if c.admit {
		steps = append(steps,
			struct{ method, path, body string }{"POST", "/sessions/" + name + "/tasks", `{"ml":"CNN1","cores":2}`},
			struct{ method, path, body string }{"POST", "/sessions/" + name + "/tasks", `{"kind":"Stitch"}`},
		)
	}
	adv := fmt.Sprintf(`{"ms":%g,"wait":true}`, c.ms)
	for i := 0; i < c.requests; i++ {
		steps = append(steps, struct{ method, path, body string }{"POST", "/sessions/" + name + "/advance", adv})
	}
	return steps
}

// driveSession runs one session's script, classifying every answer. A shed
// create (pool full) abandons the session's remaining steps — there is no
// session to advance.
func driveSession(client *http.Client, base, name string, c *cfg, ctr *counters) {
	for _, step := range sessionScript(name, c) {
		isAdvance := strings.HasSuffix(step.path, "/advance")
		t0 := time.Now()
		status, _, err := doReq(client, step.method, base+step.path, step.body, name)
		lat := time.Since(t0).Seconds()
		switch {
		case err != nil:
			ctr.transport++
			return
		case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
			ctr.shed++
			if strings.HasSuffix(step.path, "/sessions") {
				return // pool full: the whole session was refused
			}
		case status >= 500:
			ctr.serverErr++
		case status >= 400:
			ctr.clientErr++
		default:
			ctr.ok++
			if isAdvance {
				ctr.latencies = append(ctr.latencies, lat)
			}
		}
	}
}

func doReq(client *http.Client, method, url, body, clientKey string) (int, string, error) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	// Distinct rate-limit identity per session owner.
	req.Header.Set("X-Kelp-Client", clientKey)
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, "", err
	}
	return resp.StatusCode, string(data), nil
}

// verifySessions replays N randomly sampled sessions serially against
// fresh session names and byte-compares /events and /metrics: concurrency
// must not have leaked into any session's simulation.
func verifySessions(out io.Writer, client *http.Client, base string, c *cfg) error {
	rng := rand.New(rand.NewSource(c.seed))
	for k := 0; k < c.verify; k++ {
		orig := fmt.Sprintf("load-%d", rng.Intn(c.sessions))
		replay := fmt.Sprintf("verify-%d", k)
		if status, _, err := doReq(client, "GET", base+"/sessions/"+orig, "", "verify"); err != nil || status != 200 {
			// The sampled session was shed during the run; nothing to compare.
			fmt.Fprintf(out, "verify: %s absent (shed), skipped\n", orig)
			continue
		}
		for _, step := range sessionScript(replay, c) {
			if status, body, err := doReq(client, step.method, base+step.path, step.body, "verify"); err != nil || status >= 400 {
				return fmt.Errorf("verify: replay %s %s = %d %s (%v)", step.method, step.path, status, body, err)
			}
		}
		for _, ep := range []string{"/events", "/metrics"} {
			_, want, err := doReq(client, "GET", base+"/sessions/"+orig+ep, "", "verify")
			if err != nil {
				return err
			}
			_, got, err := doReq(client, "GET", base+"/sessions/"+replay+ep, "", "verify")
			if err != nil {
				return err
			}
			if want != got {
				return fmt.Errorf("verify: %s%s diverged from serial replay %s", orig, ep, replay)
			}
		}
		fmt.Fprintf(out, "verify: %s replay byte-identical (events+metrics)\n", orig)
	}
	return nil
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

func report(out io.Writer, c *cfg, total *counters, wall time.Duration) {
	sort.Float64s(total.latencies)
	requests := total.ok + total.shed + total.clientErr + total.serverErr + total.transport
	fmt.Fprintf(out, "kelpload: %d sessions x (%d advances of %g ms), %d clients, policy %s, admit=%v\n",
		c.sessions, c.requests, c.ms, c.clients, c.policy, c.admit)
	fmt.Fprintf(out, "          %d requests in %.2fs: %d ok, %d shed (429/503), %d client-err, %d server-err, %d transport-err\n",
		requests, wall.Seconds(), total.ok, total.shed, total.clientErr, total.serverErr, total.transport)
	if n := len(total.latencies); n > 0 {
		fmt.Fprintf(out, "          advance latency p50=%.2fms p90=%.2fms p99=%.2fms max=%.2fms (n=%d)\n",
			percentile(total.latencies, 0.50)*1e3, percentile(total.latencies, 0.90)*1e3,
			percentile(total.latencies, 0.99)*1e3, total.latencies[n-1]*1e3, n)
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	fmt.Fprintf(out, "          heap %d MiB after run\n", m.HeapAlloc>>20)
}
