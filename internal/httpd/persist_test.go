package httpd

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"kelp/internal/durable"
	"kelp/internal/events"
)

// newPersistServer builds a server persisting into dir.
func newPersistServer(t testing.TB, dir string, snapEvery int) (*Server, *httptest.Server) {
	t.Helper()
	return newServerCfg(t, Config{PersistDir: dir, SnapshotEvery: snapEvery})
}

// crash simulates an abrupt process death for durability tests: the WAL
// handles are dropped without the final drain snapshot or file removal
// that a graceful shutdown would perform, leaving the persist dir exactly
// as a SIGKILL would.
func crash(s *Server, ts *httptest.Server) {
	ts.Close()
	s.mu.Lock()
	all := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		if sess != nil {
			all = append(all, sess)
		}
	}
	s.mu.Unlock()
	for _, sess := range all {
		sess.mu.Lock()
		if sess.wal != nil {
			sess.wal.Close()
			sess.wal = nil
		}
		sess.mu.Unlock()
	}
	s.Close()
}

// driveLoad scripts a deterministic session: one accelerated task, two
// batch tasks, a cgroup write, a rejected admission, and three advances.
func driveLoad(t testing.TB, ts, name string) {
	t.Helper()
	base := ts + "/sessions/" + name
	for _, step := range []struct{ method, url, body string }{
		{"POST", ts + "/sessions", `{"name":"` + name + `","seed":7}`},
		{"POST", base + "/tasks", `{"ml":"CNN1","cores":2}`},
		{"POST", base + "/tasks", `{"kind":"Stitch"}`},
		{"POST", base + "/advance", `{"ms":400,"wait":true}`},
		{"POST", base + "/fs/cgroup/batch", ""},
		{"PUT", base + "/fs/cgroup/batch/cpuset.cpus", "0-3"},
		{"POST", base + "/tasks", `{"kind":"Stream","threads":2}`},
		{"POST", base + "/advance", `{"ms":300,"wait":true}`},
		{"POST", base + "/tasks", `{"ml":"CNN2"}`}, // rejected: second ML task
		{"POST", base + "/advance", `{"ms":300,"wait":true}`},
	} {
		resp, body := do(t, step.method, step.url, step.body)
		if resp.StatusCode >= 500 {
			t.Fatalf("%s %s = %d %s", step.method, step.url, resp.StatusCode, body)
		}
	}
}

// observe captures the externally visible state a recovery must reproduce
// byte-for-byte.
func observe(t testing.TB, ts, name string) (events, metrics, tasks string) {
	t.Helper()
	base := ts + "/sessions/" + name
	_, events = do(t, "GET", base+"/events", "")
	_, metrics = do(t, "GET", base+"/metrics", "")
	_, tasks = do(t, "GET", base+"/tasks", "")
	return
}

// hasRecoverEvent reports whether the server recorder holds a
// server.recover event with the given action.
func hasRecoverEvent(s *Server, action string) bool {
	for _, ev := range s.rec.Events() {
		if ev.Type == events.ServerRecover && ev.Fields["action"] == action {
			return true
		}
	}
	return false
}

func testRecoveryByteIdentical(t *testing.T, snapEvery int, wantMode string) {
	dir := t.TempDir()
	s1, ts1 := newPersistServer(t, dir, snapEvery)
	driveLoad(t, ts1.URL, "a")
	wantEvents, wantMetrics, wantTasks := observe(t, ts1.URL, "a")
	crash(s1, ts1)

	s2, ts2 := newPersistServer(t, dir, snapEvery)
	if got := s2.recoveredSessions.Load(); got != 1 {
		t.Fatalf("recovered %d sessions, want 1", got)
	}
	resp, info := do(t, "GET", ts2.URL+"/sessions/a", "")
	if resp.StatusCode != 200 {
		t.Fatalf("recovered session info = %d %s", resp.StatusCode, info)
	}
	if !strings.Contains(info, `"recovered_mode":"`+wantMode+`"`) {
		t.Fatalf("info = %s, want recovered_mode %q", info, wantMode)
	}
	gotEvents, gotMetrics, gotTasks := observe(t, ts2.URL, "a")
	if gotEvents != wantEvents {
		t.Errorf("recovered /events differs:\n got %s\nwant %s", gotEvents, wantEvents)
	}
	if gotMetrics != wantMetrics {
		t.Errorf("recovered /metrics differs:\n got %s\nwant %s", gotMetrics, wantMetrics)
	}
	if gotTasks != wantTasks {
		t.Errorf("recovered /tasks differs:\n got %s\nwant %s", gotTasks, wantTasks)
	}

	// The recovered session keeps working — and keeps logging: survive a
	// second crash that includes post-recovery commands.
	resp, body := do(t, "POST", ts2.URL+"/sessions/a/advance", `{"ms":250,"wait":true}`)
	if resp.StatusCode != 200 {
		t.Fatalf("post-recovery advance = %d %s", resp.StatusCode, body)
	}
	wantEvents2, wantMetrics2, _ := observe(t, ts2.URL, "a")
	crash(s2, ts2)

	s3, ts3 := newPersistServer(t, dir, snapEvery)
	gotEvents2, gotMetrics2, _ := observe(t, ts3.URL, "a")
	if gotEvents2 != wantEvents2 || gotMetrics2 != wantMetrics2 {
		t.Error("second recovery (with post-recovery commands) not byte-identical")
	}
	_ = s3
}

func TestRecoveryReplayByteIdentical(t *testing.T) {
	// Snapshots disabled: recovery replays the full command log from t=0.
	testRecoveryByteIdentical(t, -1, "replay")
}

func TestRecoverySnapshotByteIdentical(t *testing.T) {
	// Snapshot after every job: recovery restores state + replays the tail.
	testRecoveryByteIdentical(t, 1, "snapshot")
	// The mode assertion above proves a snapshot was used; also pin that
	// the file existed on disk before the (final) recovery consumed it.
	dir := t.TempDir()
	s1, ts1 := newPersistServer(t, dir, 1)
	driveLoad(t, ts1.URL, "a")
	crash(s1, ts1)
	if _, err := os.Stat(durable.SnapPath(dir, "a")); err != nil {
		t.Fatalf("no snapshot on disk after crash: %v", err)
	}
}

func TestRecoveryTornTailSalvaged(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newPersistServer(t, dir, -1)
	driveLoad(t, ts1.URL, "a")
	wantEvents, wantMetrics, _ := observe(t, ts1.URL, "a")
	crash(s1, ts1)

	// A crash mid-append leaves a partial frame: a bare 5-byte header
	// fragment at the tail.
	f, err := os.OpenFile(durable.WALPath(dir, "a"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0, 0, 0, 0xAA}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2, ts2 := newPersistServer(t, dir, -1)
	if got := s2.recoveredSessions.Load(); got != 1 {
		t.Fatalf("recovered %d sessions, want 1", got)
	}
	gotEvents, gotMetrics, _ := observe(t, ts2.URL, "a")
	if gotEvents != wantEvents || gotMetrics != wantMetrics {
		t.Error("salvaged session not byte-identical to the pre-tear state")
	}
	if !hasRecoverEvent(s2, "salvaged") {
		t.Error("no server.recover event with action=salvaged")
	}
	if _, err := os.Stat(filepath.Join(dir, durable.QuarantineDirName, "a.wal.torn")); err != nil {
		t.Errorf("torn fragment not preserved in quarantine: %v", err)
	}

	// The truncated log accepts new appends at the salvaged sequence.
	resp, body := do(t, "POST", ts2.URL+"/sessions/a/advance", `{"ms":100,"wait":true}`)
	if resp.StatusCode != 200 {
		t.Fatalf("post-salvage advance = %d %s", resp.StatusCode, body)
	}
}

func TestRecoveryCorruptLogQuarantined(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newPersistServer(t, dir, -1)
	driveLoad(t, ts1.URL, "a")
	driveLoad(t, ts1.URL, "b")
	wantEvents, wantMetrics, _ := observe(t, ts1.URL, "b")
	crash(s1, ts1)

	// Flip a CRC byte of session a's first frame — interior damage, since
	// more frames follow — so the log is corrupt, not torn.
	path := durable.WALPath(dir, "a")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[12] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newPersistServer(t, dir, -1)
	// Session a is unrecoverable and quarantined; b recovers untouched.
	if resp, _ := do(t, "GET", ts2.URL+"/sessions/a", ""); resp.StatusCode != http.StatusNotFound {
		t.Error("corrupt session resurrected")
	}
	if got := s2.recoveredSessions.Load(); got != 1 {
		t.Fatalf("recovered %d sessions, want 1 (only b)", got)
	}
	gotEvents, gotMetrics, _ := observe(t, ts2.URL, "b")
	if gotEvents != wantEvents || gotMetrics != wantMetrics {
		t.Error("surviving session b not byte-identical after neighbor quarantine")
	}
	if !hasRecoverEvent(s2, "quarantined") {
		t.Error("no server.recover event with action=quarantined")
	}
	if s2.quarantinedFiles.Load() == 0 {
		t.Error("healthz quarantined_files not bumped")
	}
	if _, err := os.Stat(filepath.Join(dir, durable.QuarantineDirName, "a.wal")); err != nil {
		t.Errorf("corrupt log not in quarantine: %v", err)
	}
	// The name is free again.
	if resp, _ := do(t, "POST", ts2.URL+"/sessions", `{"name":"a"}`); resp.StatusCode != http.StatusCreated {
		t.Error("quarantined name not reusable")
	}
}

// TestRecoveryCorruptSnapshotFallsBackToReplay pins the fallback for a
// snapshot that cannot be used: a damaged file, or one written in an older
// format (its magic names a previous version, such as KELPSNP3, whose
// session snapshot listed each controller state as its own field), is
// quarantined and the session is rebuilt byte-identically by full log
// replay.
func TestRecoveryCorruptSnapshotFallsBackToReplay(t *testing.T) {
	for name, damage := range map[string]func([]byte){
		"bit flip":        func(d []byte) { d[len(d)/2] ^= 0x10 },
		"old format":      func(d []byte) { copy(d, "KELPSNP1") },
		"previous format": func(d []byte) { copy(d, "KELPSNP3") },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s1, ts1 := newPersistServer(t, dir, 1)
			driveLoad(t, ts1.URL, "a")
			wantEvents, wantMetrics, _ := observe(t, ts1.URL, "a")
			crash(s1, ts1)

			path := durable.SnapPath(dir, "a")
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			damage(data)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			s2, ts2 := newPersistServer(t, dir, 1)
			resp, info := do(t, "GET", ts2.URL+"/sessions/a", "")
			if resp.StatusCode != 200 || !strings.Contains(info, `"recovered_mode":"replay"`) {
				t.Fatalf("info = %d %s, want a replay-mode recovery", resp.StatusCode, info)
			}
			gotEvents, gotMetrics, _ := observe(t, ts2.URL, "a")
			if gotEvents != wantEvents || gotMetrics != wantMetrics {
				t.Error("replay fallback not byte-identical")
			}
			if !hasRecoverEvent(s2, "quarantined") {
				t.Error("corrupt snapshot not reported as quarantined")
			}
			if _, err := os.Stat(filepath.Join(dir, durable.QuarantineDirName, "a.snap")); err != nil {
				t.Errorf("corrupt snapshot not in quarantine: %v", err)
			}
		})
	}
}

// faultCounts renders a session's injected-fault counts (fmt sorts the
// map's keys).
func faultCounts(t *testing.T, s *Server, name string) string {
	t.Helper()
	s.mu.RLock()
	sess := s.sessions[name]
	s.mu.RUnlock()
	if sess == nil {
		t.Fatalf("no session %q", name)
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return fmt.Sprint(sess.agent.Node().Faults().Counts())
}

// TestFaultedSessionRecoversFromSnapshot pins recovered ≡ uninterrupted for
// a session with fault injection: it snapshots like any other session, and
// recovery from the snapshot plus the log tail reproduces /events, /metrics
// and the injector's fault counts byte for byte, across a second crash
// with post-recovery commands too.
func TestFaultedSessionRecoversFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newPersistServer(t, dir, 1)
	base := ts1.URL + "/sessions/a"
	for _, step := range []struct{ method, url, body string }{
		{"POST", ts1.URL + "/sessions", `{"name":"a","seed":7,"faults":"seed=3,drop=0.2,stale=0.1,flap=0.1,actstick=0.1"}`},
		{"POST", base + "/tasks", `{"ml":"CNN1","cores":2}`},
		{"POST", base + "/tasks", `{"kind":"Stitch"}`},
		{"POST", base + "/advance", `{"ms":500,"wait":true}`},
		{"POST", base + "/tasks", `{"kind":"Stream","threads":2}`},
		{"POST", base + "/advance", `{"ms":500,"wait":true}`},
		{"POST", base + "/tasks", `{"kind":"Stitch"}`}, // the log tail past the last snapshot
	} {
		if resp, body := do(t, step.method, step.url, step.body); resp.StatusCode >= 400 {
			t.Fatalf("%s %s = %d %s", step.method, step.url, resp.StatusCode, body)
		}
	}
	wantEvents, wantMetrics, _ := observe(t, ts1.URL, "a")
	wantFaults := faultCounts(t, s1, "a")
	if wantFaults == "map[]" {
		t.Fatal("the faulted session injected no faults")
	}
	crash(s1, ts1)
	if _, err := os.Stat(durable.SnapPath(dir, "a")); err != nil {
		t.Fatalf("faulted session wrote no snapshot: %v", err)
	}

	s2, ts2 := newPersistServer(t, dir, 1)
	resp, info := do(t, "GET", ts2.URL+"/sessions/a", "")
	if resp.StatusCode != 200 || !strings.Contains(info, `"recovered_mode":"snapshot"`) {
		t.Fatalf("info = %d %s, want snapshot mode", resp.StatusCode, info)
	}
	gotEvents, gotMetrics, _ := observe(t, ts2.URL, "a")
	if gotEvents != wantEvents {
		t.Errorf("recovered /events differs:\n got %s\nwant %s", gotEvents, wantEvents)
	}
	if gotMetrics != wantMetrics {
		t.Errorf("recovered /metrics differs:\n got %s\nwant %s", gotMetrics, wantMetrics)
	}
	if got := faultCounts(t, s2, "a"); got != wantFaults {
		t.Errorf("recovered fault counts %s, want %s", got, wantFaults)
	}

	if resp, body := do(t, "POST", ts2.URL+"/sessions/a/advance", `{"ms":400,"wait":true}`); resp.StatusCode != 200 {
		t.Fatalf("post-recovery advance = %d %s", resp.StatusCode, body)
	}
	wantEvents2, wantMetrics2, _ := observe(t, ts2.URL, "a")
	wantFaults2 := faultCounts(t, s2, "a")
	crash(s2, ts2)

	s3, ts3 := newPersistServer(t, dir, 1)
	resp, info = do(t, "GET", ts3.URL+"/sessions/a", "")
	if resp.StatusCode != 200 || !strings.Contains(info, `"recovered_mode":"snapshot"`) {
		t.Fatalf("second recovery info = %d %s, want snapshot mode", resp.StatusCode, info)
	}
	gotEvents2, gotMetrics2, _ := observe(t, ts3.URL, "a")
	if gotEvents2 != wantEvents2 || gotMetrics2 != wantMetrics2 {
		t.Error("second recovery (with post-recovery commands) not byte-identical")
	}
	if got := faultCounts(t, s3, "a"); got != wantFaults2 {
		t.Errorf("second recovery fault counts %s, want %s", got, wantFaults2)
	}
}

func TestDestroyRemovesPersistedFiles(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newPersistServer(t, dir, 1)
	driveLoad(t, ts1.URL, "a")
	if resp, _ := do(t, "DELETE", ts1.URL+"/sessions/a", ""); resp.StatusCode != 200 {
		t.Fatal("destroy failed")
	}
	for _, p := range []string{durable.WALPath(dir, "a"), durable.SnapPath(dir, "a")} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s survived destroy (err=%v)", p, err)
		}
	}
	crash(s1, ts1)
	s2, _ := newPersistServer(t, dir, 1)
	if got := s2.recoveredSessions.Load(); got != 0 {
		t.Errorf("destroyed session resurrected (%d recovered)", got)
	}
}

// TestPoisonQuarantinesStaleFiles: once an append fails, the session's
// on-disk prefix is a lie — everything acked afterwards is missing from
// it. Poisoning must quarantine the files so a restart cannot silently
// resurrect the session from that stale prefix.
func TestPoisonQuarantinesStaleFiles(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newPersistServer(t, dir, 1)
	driveLoad(t, ts1.URL, "a")
	s1.mu.RLock()
	sess := s1.sessions["a"]
	s1.mu.RUnlock()
	// Force the next append to fail by closing the log's file underneath.
	sess.mu.Lock()
	sess.wal.Close()
	sess.mu.Unlock()
	resp, body := do(t, "POST", ts1.URL+"/sessions/a/tasks", `{"kind":"Stitch"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("admit after poisoning = %d %s (session must continue ephemeral)", resp.StatusCode, body)
	}
	_, info := do(t, "GET", ts1.URL+"/sessions/a", "")
	if !strings.Contains(info, `"failed":true`) {
		t.Errorf("session info does not surface the poisoned state: %s", info)
	}
	for _, p := range []string{durable.WALPath(dir, "a"), durable.SnapPath(dir, "a")} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("%s still in the persist dir after poisoning (err=%v)", p, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, durable.QuarantineDirName, "a.wal")); err != nil {
		t.Errorf("poisoned log not preserved in quarantine: %v", err)
	}
	if !hasRecoverEvent(s1, "quarantined") {
		t.Error("no server.recover event for the poisoning")
	}
	crash(s1, ts1)
	s2, ts2 := newPersistServer(t, dir, 1)
	if got := s2.recoveredSessions.Load(); got != 0 {
		t.Errorf("poisoned session resurrected (%d recovered)", got)
	}
	if resp, _ := do(t, "GET", ts2.URL+"/sessions/a", ""); resp.StatusCode != http.StatusNotFound {
		t.Error("poisoned session answered after restart")
	}
}

// TestSnapshotWriteFailureRetriesPromptly: a failed snapshot write must
// not poison persistence (the WAL is intact) and must not defer the next
// attempt by a full SnapshotEvery window — the records captured by the
// failed attempt still count, so the write is retried at the next due
// check.
func TestSnapshotWriteFailureRetriesPromptly(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newServerCfg(t, Config{PersistDir: dir, SnapshotEvery: 4})
	base := ts1.URL + "/sessions/a"
	for _, step := range []struct{ method, url, body string }{
		{"POST", ts1.URL + "/sessions", `{"name":"a","seed":7}`},
		{"POST", base + "/tasks", `{"ml":"CNN1","cores":2}`},
		{"POST", base + "/tasks", `{"kind":"Stitch"}`},
		{"POST", base + "/tasks", `{"kind":"Stream","threads":2}`},
	} {
		if resp, body := do(t, step.method, step.url, step.body); resp.StatusCode != http.StatusCreated {
			t.Fatalf("%s %s = %d %s", step.method, step.url, resp.StatusCode, body)
		}
	}
	// Block the snapshot path: the atomic rename cannot land on a directory.
	if err := os.Mkdir(durable.SnapPath(dir, "a"), 0o755); err != nil {
		t.Fatal(err)
	}
	// Advance A crosses the threshold (4 records) and the post-job snapshot
	// fails; advance B running proves attempt A completed.
	for i := 0; i < 2; i++ {
		if resp, body := do(t, "POST", base+"/advance", `{"ms":100,"wait":true}`); resp.StatusCode != 200 {
			t.Fatalf("advance = %d %s", resp.StatusCode, body)
		}
	}
	if s1.persistErrors.Load() == 0 {
		t.Fatal("failed snapshot write not counted in persist_errors")
	}
	if s1.snapshotsTotal.Load() != 0 {
		t.Fatal("snapshot reported written while the path was blocked")
	}
	if _, info := do(t, "GET", base, ""); !strings.Contains(info, `"failed":false`) {
		t.Errorf("snapshot failure poisoned persistence: %s", info)
	}
	// Unblock and advance twice more: the first advance's post-job check is
	// already due (the failed attempts didn't consume the record count), and
	// the second one running proves that attempt completed.
	if err := os.Remove(durable.SnapPath(dir, "a")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if resp, body := do(t, "POST", base+"/advance", `{"ms":100,"wait":true}`); resp.StatusCode != 200 {
			t.Fatalf("advance = %d %s", resp.StatusCode, body)
		}
	}
	if s1.snapshotsTotal.Load() == 0 {
		t.Error("snapshot not retried at the next due check after the write failure")
	}
}

// TestRecoveryRespectsMaxSessions: a restart with a lowered -max-sessions
// must not boot over its bound; the excess sessions are skipped with a
// server.recover event and their files stay on disk.
func TestRecoveryRespectsMaxSessions(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newPersistServer(t, dir, -1)
	for _, n := range []string{"a", "b", "c"} {
		mkSession(t, ts1.URL, n)
	}
	crash(s1, ts1)

	s2, ts2 := newServerCfg(t, Config{PersistDir: dir, MaxSessions: 2})
	if got := s2.recoveredSessions.Load(); got != 2 {
		t.Fatalf("recovered %d sessions, want 2 (the configured bound)", got)
	}
	if !hasRecoverEvent(s2, "skipped") {
		t.Error("no server.recover event with action=skipped for the excess session")
	}
	// Name order: a and b recover, c is skipped with its files intact.
	if resp, _ := do(t, "GET", ts2.URL+"/sessions/c", ""); resp.StatusCode != http.StatusNotFound {
		t.Error("skipped session answered")
	}
	if _, err := os.Stat(durable.WALPath(dir, "c")); err != nil {
		t.Errorf("skipped session's log removed from disk: %v", err)
	}
	// The pool is genuinely at its bound.
	if resp, _ := do(t, "POST", ts2.URL+"/sessions", `{"name":"d"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Error("pool accepted a session past the bound after recovery")
	}
}

// TestDestroyRecreateRaceKeepsNewWAL churns destroy-vs-create of one name
// under -race: the old incarnation's teardown must remove its files before
// the name is released, so it can never unlink a WAL the new incarnation
// just created (which would silently drop acked commands at restart).
func TestDestroyRecreateRaceKeepsNewWAL(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newPersistServer(t, dir, 1)
	client := ts1.Client()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			req, err := http.NewRequest("DELETE", ts1.URL+"/sessions/a", nil)
			if err != nil {
				return
			}
			if resp, err := client.Do(req); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	for i := 0; i < 60; i++ {
		resp, err := client.Post(ts1.URL+"/sessions", "application/json",
			strings.NewReader(`{"name":"a","seed":7}`))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	close(stop)
	wg.Wait()

	// Invariant: a live session with healthy persistence has its WAL on
	// disk, whatever interleaving the churn produced.
	s1.mu.RLock()
	sess := s1.sessions["a"]
	s1.mu.RUnlock()
	if sess != nil && sess.persistOn && !sess.persistFailed.Load() {
		if _, err := os.Stat(durable.WALPath(dir, "a")); err != nil {
			t.Fatalf("live session's WAL missing after destroy/create churn: %v", err)
		}
	}

	// End to end: settle on one final incarnation, ack a command, crash —
	// the recovered session must match it byte for byte.
	do(t, "DELETE", ts1.URL+"/sessions/a", "") // ignore outcome: may already be gone
	if resp, body := do(t, "POST", ts1.URL+"/sessions", `{"name":"a","seed":7}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("settle create = %d %s", resp.StatusCode, body)
	}
	if resp, body := do(t, "POST", ts1.URL+"/sessions/a/advance", `{"ms":200,"wait":true}`); resp.StatusCode != 200 {
		t.Fatalf("settle advance = %d %s", resp.StatusCode, body)
	}
	wantEvents, wantMetrics, _ := observe(t, ts1.URL, "a")
	crash(s1, ts1)
	s2, ts2 := newPersistServer(t, dir, 1)
	if got := s2.recoveredSessions.Load(); got != 1 {
		t.Fatalf("recovered %d sessions, want 1", got)
	}
	gotEvents, gotMetrics, _ := observe(t, ts2.URL, "a")
	if gotEvents != wantEvents || gotMetrics != wantMetrics {
		t.Error("final incarnation not byte-identical after crash")
	}
}

// TestDrainCreateRaceLeavesNoGhosts: a create that loses the race with
// drain answers 503 and the session never existed publicly — its
// just-born WAL must not survive to resurrect a ghost at the next boot.
// Recovered sessions must be exactly the acknowledged ones.
func TestDrainCreateRaceLeavesNoGhosts(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newPersistServer(t, dir, -1)
	client := ts1.Client()
	var mu sync.Mutex
	acked := map[string]bool{}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < 16; j++ {
				name := fmt.Sprintf("g-%d-%d", w, j)
				resp, err := client.Post(ts1.URL+"/sessions", "application/json",
					strings.NewReader(`{"name":"`+name+`"}`))
				if err != nil {
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusCreated {
					mu.Lock()
					acked[name] = true
					mu.Unlock()
				}
			}
		}(w)
	}
	time.Sleep(time.Millisecond) // let some creates land, then drain mid-storm
	s1.Drain(context.Background())
	wg.Wait()
	ts1.Close()

	s2, _ := newPersistServer(t, dir, -1)
	recovered := map[string]bool{}
	s2.mu.RLock()
	for name, sess := range s2.sessions {
		if sess != nil {
			recovered[name] = true
		}
	}
	s2.mu.RUnlock()
	for name := range recovered {
		if !acked[name] {
			t.Errorf("ghost session %q: recovered but its create was never acknowledged", name)
		}
	}
	for name := range acked {
		if !recovered[name] {
			t.Errorf("acked session %q lost across drain + restart", name)
		}
	}
}

func TestPersistStatusSurfaces(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newPersistServer(t, dir, 1)
	driveLoad(t, ts1.URL, "a")
	_, info := do(t, "GET", ts1.URL+"/sessions/a", "")
	for _, want := range []string{`"persisted_seq"`, `"snapshot_seq"`, `"snapshot_age_sec"`, `"failed":false`} {
		if !strings.Contains(info, want) {
			t.Errorf("session info missing %s: %s", want, info)
		}
	}
	_, hz := do(t, "GET", ts1.URL+"/healthz", "")
	for _, want := range []string{`"enabled":true`, `"snapshots"`, `"recovered_sessions"`, `"quarantined_files"`} {
		if !strings.Contains(hz, want) {
			t.Errorf("healthz missing %s: %s", want, hz)
		}
	}
	if s1.snapshotsTotal.Load() == 0 {
		t.Error("no snapshots written at snapshot-every=1")
	}
	// A session.persist event reached the server recorder.
	found := false
	for _, ev := range s1.rec.Events() {
		if ev.Type == events.SessionPersist {
			found = true
		}
	}
	if !found {
		t.Error("no session.persist event on the server recorder")
	}
	// Ephemeral servers advertise persistence off.
	_, ts2 := newServer(t)
	if _, hz := do(t, "GET", ts2.URL+"/healthz", ""); !strings.Contains(hz, `"enabled":false`) {
		t.Error("ephemeral healthz claims persistence")
	}
}

// TestReplayRejectsNonFiniteAdvance pins that WAL replay refuses an advance
// record whose end time is not finite, rather than running the engine
// toward it (an infinite end would never return).
func TestReplayRejectsNonFiniteAdvance(t *testing.T) {
	s, ts := newServer(t)
	mkSession(t, ts.URL, "a")
	s.mu.RLock()
	sess := s.sessions["a"]
	s.mu.RUnlock()
	sess.mu.Lock()
	defer sess.mu.Unlock()
	before := sess.agent.Node().Now()
	for _, end := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rec := durable.Record{Seq: 2, Kind: durable.KindAdvance, End: math.Float64bits(end)}
		if err := sess.applyRecord(s, rec); err == nil {
			t.Errorf("advance record ending at %v replayed without error", end)
		}
	}
	if now := sess.agent.Node().Now(); now != before {
		t.Errorf("rejected records advanced the session from %v to %v", before, now)
	}
}
