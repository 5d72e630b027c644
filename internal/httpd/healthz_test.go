package httpd

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// getHealthz serves one /healthz through the full handler stack and
// returns its body.
func getHealthz(t *testing.T, s *Server) string {
	t.Helper()
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("healthz = %d %s", w.Code, w.Body.String())
	}
	return w.Body.String()
}

// TestHealthzGolden pins the /healthz body byte for byte: its keys, their
// order, and each counter's value under its own key. Every counter holds a
// distinct value so a field wired to the wrong counter shows.
func TestHealthzGolden(t *testing.T) {
	clock := newFakeClock()
	s, err := New(Config{MaxSessions: 7, Clock: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	clock.Advance(1500 * time.Millisecond)
	s.sessionsLive.Store(3)
	s.jobsQueued.Store(4)
	s.jobsRunning.Store(5)
	s.jobsDone.Store(6)
	s.shedTotal.Store(8)
	s.panicsTotal.Store(9)
	s.writeErrors.Store(10)
	s.recoveredSessions.Store(11)
	s.quarantinedFiles.Store(12)
	s.replayedRecords.Store(13)
	s.persistErrors.Store(14)
	s.snapshotsTotal.Store(15)

	const tail = `"jobs_done":6,"jobs_queued":4,"jobs_running":5,"max_sessions":7,"panics":9,` +
		`"persist":{"enabled":false,"persist_errors":14,"quarantined_files":12,"recovered_sessions":11,"replayed_records":13,"snapshots":15},` +
		`"sessions":3,"shed_total":8,"status":"%s","uptime_sec":1.5,"write_errors":10}` + "\n"
	for _, tc := range []struct {
		name     string
		degraded int64
		draining bool
		want     string
	}{
		{"ok", 0, false, `{"degraded_sessions":0,` + tail},
		{"degraded", 2, false, `{"degraded_sessions":2,` + tail},
		{"draining", 2, true, `{"degraded_sessions":2,` + tail},
	} {
		s.degradedSessions.Store(tc.degraded)
		s.draining.Store(tc.draining)
		want := fmt.Sprintf(tc.want, tc.name)
		if got := getHealthz(t, s); got != want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, want)
		}
	}
}

// TestHealthzPersistEnabled pins the persist block's enabled flag on a
// server that writes a write-ahead log.
func TestHealthzPersistEnabled(t *testing.T) {
	clock := newFakeClock()
	s, err := New(Config{MaxSessions: 7, Clock: clock.Now, PersistDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := `{"degraded_sessions":0,"jobs_done":0,"jobs_queued":0,"jobs_running":0,"max_sessions":7,"panics":0,` +
		`"persist":{"enabled":true,"persist_errors":0,"quarantined_files":0,"recovered_sessions":0,"replayed_records":0,"snapshots":0},` +
		`"sessions":0,"shed_total":0,"status":"ok","uptime_sec":0,"write_errors":0}` + "\n"
	if got := getHealthz(t, s); got != want {
		t.Errorf("\n got %s\nwant %s", got, want)
	}
}

// healthzAllocs is what one /healthz request through the full middleware
// stack allocates, request and recorder included. The probe is the stack's
// fixed tax on every call (BenchmarkMiddlewareOverhead), so one more
// allocation fails the test; lower it when the path gets cheaper.
const healthzAllocs = 26

func TestHealthzAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the request path")
	}
	s, err := New(Config{RateLimit: 1e12, RateBurst: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	got := testing.AllocsPerRun(200, func() {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if w.Code != http.StatusOK {
			t.Fatalf("healthz = %d", w.Code)
		}
	})
	if got > healthzAllocs {
		t.Errorf("healthz allocates %v per request, want at most %d", got, healthzAllocs)
	}
}
