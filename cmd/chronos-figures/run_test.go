package main

import (
	"bytes"
	"io"
	"testing"
)

// TestRunRejectsBadFlags: chronos.SyntheticTrace reads a zero job count or
// seed as its default, so -jobs below 1 and -seed 0 are refused before any
// simulation, whichever experiment is asked for, instead of silently running
// 270 jobs at seed 1.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		exp  string
		jobs int
		seed uint64
	}{
		{"fig2", 0, 1},
		{"all", -1, 1},
		{"fig5", 60, 0},
		{"table1", 0, 0},
		{"fig9", 60, 1},
	} {
		var out bytes.Buffer
		if err := run(&out, tc.exp, tc.jobs, tc.seed); err == nil || out.Len() > 0 {
			t.Errorf("-exp %s -jobs %d -seed %d: err %v after printing %d bytes", tc.exp, tc.jobs, tc.seed, err, out.Len())
		}
	}
}

// BenchmarkFigures times what the command prints: one sub-benchmark per -exp
// name, at 60 trace jobs.
func BenchmarkFigures(b *testing.B) {
	exps := []string{"all"}
	for _, s := range sections(1) {
		exps = append(exps, s.exp)
	}
	for _, exp := range exps {
		b.Run(exp, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := run(io.Discard, exp, 60, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
