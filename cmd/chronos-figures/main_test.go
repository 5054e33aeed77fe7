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
// and says so.
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
			var got bytes.Buffer
			if err := run(&got, "all", tc.jobs, 1); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("output differs from %s:\n%s", tc.file, firstDiff(got.Bytes(), want))
			}
		})
	}
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
