package httpd

// Crash-injection harness: the test re-executes itself as a real child
// process serving a persisted session pool, SIGKILLs it at randomized
// points while advance jobs are in flight, restarts it, and asserts the
// recovered sessions are byte-identical to a reference rebuilt from the
// surviving write-ahead log — plus the durability contract itself: every
// command the client saw acknowledged before the kill is in the log.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"kelp/internal/durable"
)

func TestMain(m *testing.M) {
	if os.Getenv("KELP_CRASH_CHILD") == "1" {
		runCrashChild()
		return
	}
	os.Exit(m.Run())
}

// runCrashChild is the re-exec'd server process: a persisted session pool
// on an ephemeral port, address announced on stdout. It never exits on its
// own — the parent SIGKILLs it.
func runCrashChild() {
	snapEvery, err := strconv.Atoi(os.Getenv("KELP_CRASH_SNAP"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(1)
	}
	s, err := New(Config{
		PersistDir:    os.Getenv("KELP_CRASH_DIR"),
		SnapshotEvery: snapEvery,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(1)
	}
	fmt.Printf("ADDR %s\n", ln.Addr())
	if err := http.Serve(ln, s.Handler()); err != nil {
		fmt.Fprintln(os.Stderr, "crash child:", err)
		os.Exit(1)
	}
}

// child is one spawned kelpd-like server process.
type child struct {
	cmd *exec.Cmd
	url string
}

func startChild(t *testing.T, dir string, snapEvery int) *child {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=^$")
	cmd.Env = append(os.Environ(),
		"KELP_CRASH_CHILD=1",
		"KELP_CRASH_DIR="+dir,
		"KELP_CRASH_SNAP="+strconv.Itoa(snapEvery),
	)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		cmd.Wait()
		t.Fatalf("crash child produced no address line")
	}
	addr, ok := strings.CutPrefix(sc.Text(), "ADDR ")
	if !ok {
		t.Fatalf("unexpected child banner %q", sc.Text())
	}
	c := &child{cmd: cmd, url: "http://" + addr}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(c.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == 200 {
				return c
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("crash child never became healthy: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// kill SIGKILLs the child and reaps it.
func (c *child) kill(t *testing.T) {
	t.Helper()
	if err := c.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	c.cmd.Wait()
}

// tryDo issues one request, tolerating transport errors (the child may die
// mid-request). ok reports a readable response.
func tryDo(method, url, body string) (status int, respBody string, ok bool) {
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		return 0, "", false
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, "", false
	}
	defer resp.Body.Close()
	var sb strings.Builder
	if _, err := bufio.NewReader(resp.Body).WriteTo(&sb); err != nil {
		return resp.StatusCode, "", false
	}
	return resp.StatusCode, sb.String(), true
}

// crashSessions are the sessions the crash harness drives: one plain and
// one with fault injection, so recovery from a faulted snapshot is killed
// and checked too.
var crashSessions = []struct{ name, create string }{
	{"a", `{"name":"a","seed":11}`},
	{"f", `{"name":"f","seed":13,"faults":"seed=5,drop=0.2,stale=0.1,actstick=0.1"}`},
}

func testCrashInjection(t *testing.T, snapEvery int, rounds int, seed int64) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(seed))

	// Structural setup against the first child, then one advance per
	// session: these commands are acknowledged, so they must survive every
	// crash below.
	c := startChild(t, dir, snapEvery)
	for _, cs := range crashSessions {
		base := c.url + "/sessions/" + cs.name
		for _, step := range []struct{ method, url, body string }{
			{"POST", c.url + "/sessions", cs.create},
			{"POST", base + "/tasks", `{"ml":"CNN1","cores":2}`},
			{"POST", base + "/tasks", `{"kind":"Stitch"}`},
			{"POST", base + "/fs/cgroup/batch", ""},
			{"PUT", base + "/fs/cgroup/batch/cpuset.cpus", "0-3"},
			{"POST", base + "/advance", `{"ms":80,"wait":true}`},
		} {
			status, body, ok := tryDo(step.method, step.url, step.body)
			if !ok || status >= 400 {
				t.Fatalf("%s %s = %d %s (ok=%v)", step.method, step.url, status, body, ok)
			}
		}
	}
	const setupRecords = 6 // create + 2 admits + mkdir + put + advance
	// With snapshots on, the advance's snapshot is written after its ack;
	// wait for it, so every recovery below starts from a snapshot.
	wantMode := "replay"
	if snapEvery > 0 {
		wantMode = "snapshot"
		for _, cs := range crashSessions {
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
				if _, info, ok := tryDo("GET", c.url+"/sessions/"+cs.name, ""); ok && strings.Contains(info, `"snapshot_seq"`) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%s: no snapshot after the setup advance", cs.name)
				}
			}
		}
	}

	ackedAdvances := map[string]int{}
	for round := 0; round < rounds; round++ {
		// Drive advances, alternating sessions, until the randomized
		// SIGKILL lands. The killer fires from another goroutine so death
		// hits at an arbitrary point in the request/advance/log cycle.
		delay := time.Duration(2+rng.Intn(60)) * time.Millisecond
		killed := make(chan struct{})
		go func() {
			time.Sleep(delay)
			c.cmd.Process.Kill()
			close(killed)
		}()
		for i := 0; ; i++ {
			name := crashSessions[i%len(crashSessions)].name
			status, body, ok := tryDo("POST", c.url+"/sessions/"+name+"/advance", `{"ms":80,"wait":true}`)
			if !ok {
				break // child died mid-request
			}
			if status == 200 && strings.Contains(body, `"state":"done"`) {
				ackedAdvances[name]++
			}
		}
		<-killed
		c.cmd.Wait()

		// Each surviving log must decode cleanly (a torn tail is legal) and
		// must contain every acknowledged command. The reference is an
		// in-process, non-persisted session rebuilt from it: the state an
		// uninterrupted run would hold after exactly these commands.
		want := map[string][2]string{}
		for _, cs := range crashSessions {
			data, err := os.ReadFile(durable.WALPath(dir, cs.name))
			if err != nil {
				t.Fatal(err)
			}
			rd, err := durable.DecodeWAL(data)
			if err != nil {
				t.Fatalf("round %d: %s: surviving WAL is corrupt: %v", round, cs.name, err)
			}
			advances := 0
			for _, rec := range rd.Records {
				if rec.Kind == durable.KindAdvance {
					advances++
				}
			}
			if len(rd.Records) < setupRecords || advances < 1+ackedAdvances[cs.name] {
				t.Fatalf("round %d: %s: durability violated: %d records (%d advances) for %d acked advances",
					round, cs.name, len(rd.Records), advances, 1+ackedAdvances[cs.name])
			}
			events, metrics := referenceFromWAL(t, rd.Records)
			want[cs.name] = [2]string{events, metrics}
		}

		// Restart on the same directory and compare the recovered sessions.
		c = startChild(t, dir, snapEvery)
		for _, cs := range crashSessions {
			base := c.url + "/sessions/" + cs.name
			if _, info, ok := tryDo("GET", base, ""); !ok || !strings.Contains(info, `"recovered_mode":"`+wantMode+`"`) {
				t.Fatalf("round %d: %s: info = %s (ok=%v), want recovered_mode %q", round, cs.name, info, ok, wantMode)
			}
			status, gotEvents, ok := tryDo("GET", base+"/events", "")
			if !ok || status != 200 {
				t.Fatalf("round %d: %s: recovered /events = %d (ok=%v)", round, cs.name, status, ok)
			}
			status, gotMetrics, ok := tryDo("GET", base+"/metrics", "")
			if !ok || status != 200 {
				t.Fatalf("round %d: %s: recovered /metrics = %d (ok=%v)", round, cs.name, status, ok)
			}
			if gotEvents != want[cs.name][0] {
				t.Fatalf("round %d: %s: recovered /events not byte-identical\n got %s\nwant %s",
					round, cs.name, gotEvents, want[cs.name][0])
			}
			if gotMetrics != want[cs.name][1] {
				t.Fatalf("round %d: %s: recovered /metrics not byte-identical", round, cs.name)
			}
		}
	}
}

// referenceFromWAL replays decoded records into a fresh in-process server
// with persistence off and renders the endpoints a recovered child must
// reproduce byte-for-byte.
func referenceFromWAL(t *testing.T, recs []durable.Record) (events, metrics string) {
	t.Helper()
	if len(recs) == 0 || recs[0].Kind != durable.KindCreate {
		t.Fatal("WAL lost its create record")
	}
	ref, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ref.Close)
	var req createSessionRequest
	if err := json.Unmarshal(recs[0].Config, &req); err != nil {
		t.Fatal(err)
	}
	sess, _, err := ref.rebuildSession(req, req.Name, recs, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref.mu.Lock()
	ref.sessions[req.Name] = sess
	ref.mu.Unlock()
	ref.sessionsLive.Add(1)
	ts := httptest.NewServer(ref.Handler())
	t.Cleanup(ts.Close)
	_, events = do(t, "GET", ts.URL+"/sessions/"+req.Name+"/events", "")
	_, metrics = do(t, "GET", ts.URL+"/sessions/"+req.Name+"/metrics", "")
	return events, metrics
}

func TestCrashInjectionWithSnapshots(t *testing.T) {
	testCrashInjection(t, 2, 3, 42)
}

func TestCrashInjectionReplayOnly(t *testing.T) {
	testCrashInjection(t, -1, 3, 1337)
}
