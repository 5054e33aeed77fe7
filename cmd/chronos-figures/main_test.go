package main

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"chronos/internal/race"
)

// TestFiguresGolden pins every table and chart the command prints, byte for
// byte, against files generated once at commit b0830ad and never since: a
// change to the simulator, the strategies or the experiment drivers that
// moves any printed digit of the paper's evaluation fails here. The files are
// not regenerated; a deliberate change of the numbers replaces them by hand
// and says so. The one edit since is a deletion: the node-failure extension's
// section went with the experiment, every other byte as generated.
func TestFiguresGolden(t *testing.T) {
	for _, tc := range []struct {
		file string
		jobs int
		slow bool
	}{
		{"testdata/figures_all_jobs60.golden", 60, false},
		{"testdata/figures_all.golden", 270, true}, // the command's defaults
	} {
		t.Run(tc.file, func(t *testing.T) {
			if tc.slow && (testing.Short() || race.Enabled) {
				t.Skip("the default-size run takes several seconds; skipped under -short and -race")
			}
			want, err := os.ReadFile(tc.file)
			if err != nil {
				t.Fatal(err)
			}
			if got := printedAll(t, tc.jobs); !bytes.Equal(got, want) {
				t.Errorf("output differs from %s:\n%s", tc.file, firstDiff(got, want))
			}
		})
	}
}

// printedRuns memoizes printedAll by job count.
var printedRuns = map[int][]byte{}

// printedAll returns what run(w, "all", jobs, 1) prints, running it once per
// job count per test binary, so the figures golden and the claims ledger
// read the same bytes and the 270-job evaluation is simulated once.
func printedAll(t *testing.T, jobs int) []byte {
	t.Helper()
	if out, ok := printedRuns[jobs]; ok {
		return out
	}
	var out bytes.Buffer
	if err := run(&out, "all", jobs, 1); err != nil {
		t.Fatal(err)
	}
	printedRuns[jobs] = out.Bytes()
	return out.Bytes()
}

// firstDiff reports the first line on which two outputs disagree.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return "no differing line (lengths differ)"
}
