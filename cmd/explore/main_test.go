package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReportsMatchGolden checks the report of every built-in model against
// testdata/<model>.golden. The reports hold exhaustive verdicts (state
// counts, valences, agreement, deciders, critical configurations), so any
// change to the explorer or the models that alters what is reachable or
// what it means shows up here as a diff.
func TestReportsMatchGolden(t *testing.T) {
	for _, model := range []string{"gated", "group", "of", "of8", "tas2", "tas3", "tas4", "tas5", "tas6"} {
		t.Run(model, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", model+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var out bytes.Buffer
			if err := run([]string{"-model", model}, &out, io.Discard); err != nil {
				t.Fatal(err)
			}
			if got := out.String(); got != string(want) {
				t.Errorf("report differs from testdata/%s.golden\ngot:\n%s\nwant:\n%s", model, got, want)
			}
		})
	}
}

func TestRunRejects(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-model", "tas2", "-inputs", "0,16"}, "p1 proposes 16,"},
		{[]string{"-model", "nope"}, "unknown model"},
		{[]string{"-model", "tas3", "-inputs", "0,1"}, "needs 3"},
		{[]string{"-model", "tas2", "-inputs", "0,x"}, "-inputs"},
		{[]string{"-workers", "1"}, "not defined"},
		{[]string{"-model", "of", "-limit", "10"}, "state limit"},
	} {
		err := run(tc.args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run %v: err = %v, want it to contain %q", tc.args, err, tc.want)
		}
	}
}
