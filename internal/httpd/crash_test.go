package httpd

// Crash-injection harness: the test re-executes itself as a real child
// process serving a persisted session pool, drives scripted sessions at it,
// SIGKILLs it at randomized points, restarts it, and checks the durability
// contract (every command the client saw acknowledged is in the log) and
// recovered ≡ uninterrupted: each recovered session answers byte-identically
// to its logged commands driven again on a server with persistence off.

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
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

// crashStep is one request of a crash session's script and the kind of the
// one WAL record it appends.
type crashStep struct {
	kind               durable.Kind
	method, path, body string
}

// crashScript is the script of the i-th crash session: create (every other
// session with a fault spec), admit CNN1 and a Stitch antagonist, make the
// batch cgroup and write its cpuset, then advance. Every step appends
// exactly one WAL record, so a log of n records holds exactly the first n
// steps, and the reference for it is those steps driven again.
func crashScript(name string, i int) []crashStep {
	create := fmt.Sprintf(`{"name":%q,"seed":%d}`, name, 11+i)
	if i%2 == 1 {
		create = fmt.Sprintf(`{"name":%q,"seed":%d,"faults":"seed=5,drop=0.2,stale=0.1,actstick=0.1"}`, name, 11+i)
	}
	base := "/sessions/" + name
	steps := []crashStep{
		{durable.KindCreate, "POST", "/sessions", create},
		{durable.KindAdmit, "POST", base + "/tasks", `{"ml":"CNN1","cores":2}`},
		{durable.KindAdmit, "POST", base + "/tasks", `{"kind":"Stitch"}`},
		{durable.KindFS, "POST", base + "/fs/cgroup/batch", ""},
		{durable.KindFS, "PUT", base + "/fs/cgroup/batch/cpuset.cpus", "0-3"},
	}
	for range 4 {
		steps = append(steps, crashStep{durable.KindAdvance, "POST", base + "/advance", `{"ms":40,"wait":true}`})
	}
	return steps
}

// crashSession is one scripted session and what the harness knows of it.
type crashSession struct {
	name   string
	script []crashStep
	sent   int // steps whose request went out
	acked  int // steps whose full response came back
	// logged is the record count of the surviving log (-1 before the first
	// kill that found the session); snap reports a snapshot on disk.
	logged int
	snap   bool
	// want is the reference observation of the first logged steps, taken
	// once: the session is never driven again, so it must not change.
	want *[3]string
}

// drive runs the script against the child until it ends or the child
// dies, and reports whether the child was still answering. Every step
// must succeed while it is.
func (cs *crashSession) drive(t *testing.T, url string) bool {
	t.Helper()
	for i, step := range cs.script {
		cs.sent = i + 1
		status, body, ok := tryDo(step.method, url+step.path, step.body)
		if !ok {
			return false
		}
		if status >= 400 {
			t.Fatalf("%s: %s %s = %d %s", cs.name, step.method, step.path, status, body)
		}
		cs.acked = i + 1
	}
	return true
}

// checkLog reads the session's surviving log after a kill and checks the
// durability contract: every acknowledged step is in it, nothing beyond
// the steps sent is, record i has step i's kind, and a session from an
// earlier round still has the log it had then.
func (cs *crashSession) checkLog(t *testing.T, dir string, round int) {
	t.Helper()
	n := 0
	rd, err := durable.ReadWAL(durable.WALPath(dir, cs.name))
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// Never created, or quarantined by an earlier restart.
	case err != nil:
		// Only a kill inside the create can leave a log without its magic,
		// and recovery quarantines it.
		if cs.acked > 0 {
			t.Fatalf("round %d: %s: surviving WAL is corrupt: %v", round, cs.name, err)
		}
	default:
		n = len(rd.Records)
	}
	if n < cs.acked || n > cs.sent {
		t.Fatalf("round %d: %s: durability violated: %d records for %d acked of %d sent steps",
			round, cs.name, n, cs.acked, cs.sent)
	}
	if cs.logged >= 0 && n != cs.logged {
		t.Fatalf("round %d: %s: log went from %d to %d records without a command", round, cs.name, cs.logged, n)
	}
	for i, rec := range rd.Records[:n] {
		if rec.Kind != cs.script[i].kind {
			t.Fatalf("round %d: %s: record %d is %q, step %d is %q", round, cs.name, i+1, rec.Kind, i+1, cs.script[i].kind)
		}
	}
	cs.logged = n
	_, err = os.Stat(durable.SnapPath(dir, cs.name))
	cs.snap = err == nil
}

// verify compares the restarted child's session with the reference: absent
// when nothing was logged, otherwise recovered in the mode its files allow
// and byte-identical to the logged steps driven on the no-persist server
// at ref. It returns the recovery mode ("" for an absent session).
func (cs *crashSession) verify(t *testing.T, url, ref string, round int) string {
	t.Helper()
	status, info, ok := tryDo("GET", url+"/sessions/"+cs.name, "")
	if !ok {
		t.Fatalf("round %d: %s: recovered child not answering", round, cs.name)
	}
	if cs.logged == 0 {
		if status != http.StatusNotFound {
			t.Fatalf("round %d: %s: session with no logged create recovered: %d %s", round, cs.name, status, info)
		}
		return ""
	}
	mode := "replay"
	if cs.snap {
		mode = "snapshot"
	}
	if status != 200 || !strings.Contains(info, `"recovered_mode":"`+mode+`"`) {
		t.Fatalf("round %d: %s: info = %d %s, want recovered_mode %q", round, cs.name, status, info, mode)
	}
	if cs.want == nil {
		for _, step := range cs.script[:cs.logged] {
			if resp, body := do(t, step.method, ref+step.path, step.body); resp.StatusCode >= 400 {
				t.Fatalf("reference %s: %s %s = %d %s", cs.name, step.method, step.path, resp.StatusCode, body)
			}
		}
		events, metrics, control := observe(t, ref, cs.name)
		cs.want = &[3]string{events, metrics, control}
	}
	events, metrics, control := observe(t, url, cs.name)
	for i, got := range []string{events, metrics, control} {
		if got != cs.want[i] {
			t.Fatalf("round %d: %s: recovered %s not byte-identical (%d logged steps)\n got %s\nwant %s",
				round, cs.name, [3]string{"/events", "/metrics", "/tasks and cpuset.cpus"}[i], cs.logged, got, cs.want[i])
		}
	}
	return mode
}

// testCrashInjection runs rounds of kill and restart. Each round starts
// fresh scripted sessions one after another until a SIGKILL at a random
// delay lands, so the kill meets creates, admissions, fs writes and
// advances; after every restart each session of every round so far is
// checked again.
func testCrashInjection(t *testing.T, snapEvery int, rounds int, seed int64) {
	if testing.Short() {
		t.Skip("spawns real processes")
	}
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(seed))
	_, ref := newServer(t)

	var sessions []*crashSession
	modes := map[string]int{}
	c := startChild(t, dir, snapEvery)
	for round := 0; round < rounds; round++ {
		// The killer fires from another goroutine so death hits at an
		// arbitrary point in the request/apply/log cycle.
		delay := time.Duration(5+rng.Intn(100)) * time.Millisecond
		killed := make(chan struct{})
		go func(p *os.Process) {
			time.Sleep(delay)
			p.Kill()
			close(killed)
		}(c.cmd.Process)
		var cs *crashSession
		for alive := true; alive; {
			name := fmt.Sprintf("r%d-%d", round, len(sessions))
			cs = &crashSession{name: name, script: crashScript(name, len(sessions)), logged: -1}
			sessions = append(sessions, cs)
			alive = cs.drive(t, c.url)
		}
		<-killed
		c.cmd.Wait()
		t.Logf("round %d: kill after %s landed in %s at step %d (%s)",
			round, delay, cs.name, cs.sent, cs.script[cs.sent-1].kind)

		for _, cs := range sessions {
			cs.checkLog(t, dir, round)
		}
		c = startChild(t, dir, snapEvery)
		for _, cs := range sessions {
			modes[cs.verify(t, c.url, ref.URL, round)]++
		}
	}
	if snapEvery > 0 && modes["snapshot"] == 0 {
		t.Fatalf("no session recovered from a snapshot: %v", modes)
	}
	if snapEvery < 0 && modes["snapshot"] > 0 {
		t.Fatalf("a replay-only server recovered from a snapshot: %v", modes)
	}
}

func TestCrashInjectionWithSnapshots(t *testing.T) {
	testCrashInjection(t, 2, 3, 42)
}

func TestCrashInjectionReplayOnly(t *testing.T) {
	testCrashInjection(t, -1, 3, 1337)
}
