package main

import (
	"bytes"
	"errors"
	"regexp"
	"strings"
	"testing"
)

// ranIDs extracts the experiment ids from the "== ID: title ==" table
// headers, in the order they were printed.
func ranIDs(out string) string {
	var ids []string
	for _, m := range regexp.MustCompile(`(?m)^== (\w+): `).FindAllStringSubmatch(out, -1) {
		ids = append(ids, m[1])
	}
	return strings.Join(ids, " ")
}

func TestRunSelectsExperiments(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "T1 F1 F2 F3 F4 F5 F6 F7 F8 F9 F10 A1 A2"},
		{[]string{"F8", "T1"}, "T1 F8"}, // paper order, not argument order
	} {
		var out bytes.Buffer
		if err := run(tc.args, &out); err != nil {
			t.Fatalf("run(%v): %v", tc.args, err)
		}
		if got := ranIDs(out.String()); got != tc.want {
			t.Errorf("run(%v) printed %q, want %q", tc.args, got, tc.want)
		}
	}
}

// An id from the deleted S-series (or any typo) must be refused before
// anything runs, naming the ids that do exist.
func TestRunRejectsUnknownID(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"T1", "S1"}, &out)
	if !errors.Is(err, errUnknownID) {
		t.Fatalf("run(T1 S1) = %v, want errUnknownID", err)
	}
	if !strings.Contains(err.Error(), `"S1"`) || !strings.Contains(err.Error(), "T1 F1 F2") {
		t.Errorf("error %q does not name the bad id and the valid ones", err)
	}
	if out.Len() != 0 {
		t.Errorf("an experiment ran before the unknown id was refused:\n%s", out.String())
	}
}
