package main

import (
	"fmt"
	"io"
	"strings"
	"testing"
)

// The load drill with every verifier on: admitted workloads, a serial
// replay byte-compared against a sampled session, and a session's SSE
// stream byte-compared against polling, all under -check.
func TestRunAdmitVerifyStream(t *testing.T) {
	c := cfg{
		inprocess: true, admit: true, check: true,
		sessions: 4, clients: 2, requests: 2, ms: 200,
		verify: 1, stream: 1, policy: "KP", seed: 1,
	}
	if err := run(&c, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// The shed drill: a 2-session pool refuses exactly 3 of 5 creates, so
// -min-shed 3 passes and -min-shed 4 fails the check.
func TestRunShedDrill(t *testing.T) {
	for _, tc := range []struct {
		minShed int
		wantErr string
	}{
		{3, ""},
		{4, "check: 3 shed, want >= 4"},
	} {
		t.Run(fmt.Sprintf("min-shed=%d", tc.minShed), func(t *testing.T) {
			c := cfg{
				inprocess: true, check: true,
				sessions: 5, clients: 2, requests: 1, ms: 10,
				maxSessions: 2, minShed: tc.minShed, policy: "KP", seed: 1,
			}
			err := run(&c, io.Discard)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatal(err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("err = %v, want %q", err, tc.wantErr)
			}
		})
	}
}
