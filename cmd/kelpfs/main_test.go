package main

import (
	"strings"
	"testing"
)

// buildNode reads "none" for either flag in any letter case as "no such
// task", names its workloads case-insensitively, and rejects unknown names.
func TestBuildNodeNames(t *testing.T) {
	for _, tc := range []struct {
		ml, agg string
		tasks   []string
	}{
		{"none", "none", nil},
		{"NONE", "None", nil},
		{"None", "NONE", nil},
		{"none", "H", []string{"DRAM-H"}},
		{"CNN1", "NONE", []string{"CNN1"}},
		{"rnn1", "l", []string{"RNN1", "DRAM-L"}},
	} {
		n, err := buildNode(tc.ml, tc.agg)
		if err != nil {
			t.Fatalf("buildNode(%q, %q): %v", tc.ml, tc.agg, err)
		}
		var names []string
		for _, task := range n.Tasks() {
			names = append(names, task.Name())
		}
		if strings.Join(names, ",") != strings.Join(tc.tasks, ",") {
			t.Errorf("buildNode(%q, %q) tasks = %v, want %v", tc.ml, tc.agg, names, tc.tasks)
		}
	}
	for _, tc := range []struct{ ml, agg, err string }{
		{"CNN9", "none", `scenario: unknown ML workload "CNN9"`},
		{"none", "X", `scenario: unknown level "X"`},
		{"nonexistent", "H", `scenario: unknown ML workload "nonexistent"`},
	} {
		if _, err := buildNode(tc.ml, tc.agg); err == nil || err.Error() != tc.err {
			t.Errorf("buildNode(%q, %q) error = %v, want %q", tc.ml, tc.agg, err, tc.err)
		}
	}
}
