package main

import (
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"chronos/internal/race"
)

// The claims ledger: each claim states one result of the paper's Section VII
// evaluation as a predicate over the tables chronos-figures prints, with its
// status. A claim that "holds" must hold. A "known-divergence: item N" claim
// names the ROADMAP item that owns the gap and must still fail, so the change
// that closes the gap flips the status instead of passing unnoticed. The
// claims read printed text only, never the code that computes it, so they
// judge any rewrite of how the figures are produced.
var claims = []struct {
	id, figure, text, status string
	check                    func(printed) error
}{
	{"full-grid", "all", "every section prints its full grid: Fig. 2 20 rows, Table I 7, Table II 9, Fig. 3 16, Fig. 4 45, Fig. 5 4", "holds",
		func(p printed) error {
			for name, n := range map[string]int{"Figure 2": 20, "Table I": 7, "Table II": 9, "Figure 3": 16, "Figure 4": 45, "Figure 5": 4} {
				if len(p[name]) != n {
					return fmt.Errorf("%s prints %d rows, want %d", name, len(p[name]), n)
				}
			}
			return nil
		}},
	{"ranges", "all", "every PoCD lies in [0, 1] and every cost is positive", "holds",
		func(p printed) error {
			for name, rows := range p {
				for _, r := range rows {
					if _, ok := r["PoCD"]; ok && !(r.f("PoCD") >= 0 && r.f("PoCD") <= 1 && r.f("Cost") > 0) {
						return fmt.Errorf("%s: %v", name, r)
					}
				}
			}
			return nil
		}},
	{"fig2-chronos-above-hadoop", "Fig. 2", "on every benchmark each Chronos strategy's PoCD is above Hadoop-NS's and Hadoop-S's", "holds",
		func(p printed) error {
			for bench, s := range p.series("Figure 2", "Benchmark") {
				by := strategies(s)
				for _, c := range chronosStrategies {
					for _, h := range []string{"Hadoop-NS", "Hadoop-S"} {
						if !(by[c].f("PoCD") > by[h].f("PoCD")) {
							return fmt.Errorf("%s: %s PoCD %s, %s %s", bench, c, by[c]["PoCD"], h, by[h]["PoCD"])
						}
					}
				}
			}
			return nil
		}},
	{"fig2-hadoop-s-not-below-ns", "Fig. 2", "on every benchmark Hadoop-S's PoCD is at least Hadoop-NS's − 0.05", "holds",
		func(p printed) error {
			for bench, s := range p.series("Figure 2", "Benchmark") {
				by := strategies(s)
				if !(by["Hadoop-S"].f("PoCD") >= by["Hadoop-NS"].f("PoCD")-0.05) {
					return fmt.Errorf("%s: Hadoop-S PoCD %s, Hadoop-NS %s", bench, by["Hadoop-S"]["PoCD"], by["Hadoop-NS"]["PoCD"])
				}
			}
			return nil
		}},
	{"fig2-ns-utility-inf", "Fig. 2", "Hadoop-NS's utility is −inf: its PoCD is the benchmark's Rmin", "holds",
		func(p printed) error {
			for bench, s := range p.series("Figure 2", "Benchmark") {
				if u := strategies(s)["Hadoop-NS"].f("Utility"); !math.IsInf(u, -1) {
					return fmt.Errorf("%s: Hadoop-NS utility %v", bench, u)
				}
			}
			return nil
		}},
	{"fig2-resume-cost", "Fig. 2", "on every benchmark Speculative-Resume's cost is at most 1.05× Clone's", "holds",
		func(p printed) error {
			for bench, s := range p.series("Figure 2", "Benchmark") {
				by := strategies(s)
				if !(by["Speculative-Resume"].f("Cost") <= 1.05*by["Clone"].f("Cost")) {
					return fmt.Errorf("%s: Resume cost %s, Clone %s", bench, by["Speculative-Resume"]["Cost"], by["Clone"]["Cost"])
				}
			}
			return nil
		}},
	{"table1-grid", "Table I", "Clone comes first at τ_est = 0, and every Restart/Resume row has τ_kill − τ_est = 0.5·tmin", "holds",
		func(p printed) error {
			rows := p["Table I"]
			if len(rows) == 0 || rows[0]["Strategy"] != "Clone" || rows[0].f("tauEst") != 0 {
				return fmt.Errorf("first row %v, want Clone at tauEst 0", rows)
			}
			for _, r := range rows[1:] {
				if !(math.Abs(r.f("tauKill")-r.f("tauEst")-0.5) < 1e-9) {
					return fmt.Errorf("row %v", r)
				}
			}
			return nil
		}},
	{"table1-reactive-vs-clone", "Table I", "the best Restart/Resume PoCD is at least Clone's − 0.05 (the paper: ≈0.99 against 0.72)", "known-divergence: item 11",
		func(p printed) error {
			var clone, best float64
			for _, r := range p["Table I"] {
				if r["Strategy"] == "Clone" {
					clone = r.f("PoCD")
				} else {
					best = math.Max(best, r.f("PoCD"))
				}
			}
			if !(best >= clone-0.05) {
				return fmt.Errorf("best Restart/Resume PoCD %.3f, Clone %.3f", best, clone)
			}
			return nil
		}},
	{"table2-sweep-order", "Table II", "each strategy's rows are in sweep order: τ_kill rises", "holds",
		func(p printed) error {
			for name, s := range p.series("Table II", "Strategy") {
				for i := 1; i < len(s); i++ {
					if !(s[i].f("tauKill") > s[i-1].f("tauKill")) {
						return fmt.Errorf("%s: tauKill %s after %s", name, s[i]["tauKill"], s[i-1]["tauKill"])
					}
				}
			}
			return nil
		}},
	{"table2-clone-cost", "Table II", "Clone's cost rises with τ_kill", "holds",
		func(p printed) error {
			s := p.series("Table II", "Strategy")["Clone"]
			for i := 1; i < len(s); i++ {
				if !(s[i].f("Cost") > s[i-1].f("Cost")) {
					return fmt.Errorf("Clone cost %s at tauKill %s after %s", s[i]["Cost"], s[i]["tauKill"], s[i-1]["Cost"])
				}
			}
			return nil
		}},
	{"fig3-chronos-cost", "Fig. 3", "each Chronos strategy's cost does not rise with θ (5 % slack)", "holds",
		func(p printed) error {
			series := p.series("Figure 3", "Strategy")
			for _, c := range chronosStrategies {
				if err := notRising(c, series[c], "theta", 1.05); err != nil {
					return err
				}
			}
			return nil
		}},
	{"fig3-mantri-cost", "Fig. 3", "Mantri's cost is flat in θ (1 % slack) and at least 0.97× Restart's and Resume's", "holds",
		func(p printed) error {
			series := p.series("Figure 3", "Strategy")
			mantri := series["Mantri"]
			lo, hi := math.Inf(1), math.Inf(-1)
			for i, r := range mantri {
				lo, hi = math.Min(lo, r.f("Cost")), math.Max(hi, r.f("Cost"))
				for _, c := range []string{"Speculative-Restart", "Speculative-Resume"} {
					if !(i < len(series[c]) && r.f("Cost") >= 0.97*series[c][i].f("Cost")) {
						return fmt.Errorf("theta %s: Mantri cost %s below %s's", r["theta"], r["Cost"], c)
					}
				}
			}
			if !(hi <= 1.01*lo) {
				return fmt.Errorf("Mantri cost varies with theta over [%v, %v]", lo, hi)
			}
			return nil
		}},
	{"fig3-resume-utility", "Fig. 3", "Speculative-Resume's utility is within 0.02 of the best at every θ", "holds",
		func(p printed) error {
			for theta, s := range p.series("Figure 3", "theta") {
				best := math.Inf(-1)
				for _, r := range s {
					best = math.Max(best, r.f("Utility"))
				}
				if u := strategies(s)["Speculative-Resume"].f("Utility"); !(u >= best-0.02) {
					return fmt.Errorf("theta %s: Resume utility %v, best %v", theta, u, best)
				}
			}
			return nil
		}},
	{"fig4-cost", "Fig. 4", "every strategy's cost does not rise with β (5 % slack)", "holds",
		func(p printed) error {
			for name, s := range p.series("Figure 4", "Strategy") {
				if err := notRising(name, s, "beta", 1.05); err != nil {
					return err
				}
			}
			return nil
		}},
	{"fig4-chronos-pocd", "Fig. 4", "at every β each Chronos strategy's PoCD is at least Hadoop-NS's − 0.03", "holds",
		func(p printed) error {
			for beta, s := range p.series("Figure 4", "beta") {
				by := strategies(s)
				for _, c := range chronosStrategies {
					if !(by[c].f("PoCD") >= by["Hadoop-NS"].f("PoCD")-0.03) {
						return fmt.Errorf("beta %s: %s PoCD %s, Hadoop-NS %s", beta, c, by[c]["PoCD"], by["Hadoop-NS"]["PoCD"])
					}
				}
			}
			return nil
		}},
	{"fig5-histograms", "Fig. 5", "Clone and Speculative-Resume each print a non-empty r histogram at θ = 1e-5 and at 1e-4", "holds",
		func(p printed) error {
			for _, theta := range []string{"0.000010", "0.000100"} {
				by := strategies(p.series("Figure 5", "theta")[theta])
				for _, s := range []string{"Clone", "Speculative-Resume"} {
					if h := by[s]["r-histogram (r:count)"]; h == "" {
						return fmt.Errorf("theta %s: %s prints no histogram", theta, s)
					}
				}
			}
			return nil
		}},
	{"fig5-mode-shift", "Fig. 5", "each strategy's most frequent r at θ = 1e-4 is at most its mode at θ = 1e-5", "holds",
		func(p printed) error {
			for name, s := range p.series("Figure 5", "Strategy") {
				if !(len(s) == 2 && s[0]["theta"] == "0.000010" && s[1]["theta"] == "0.000100" && s[1].f("mode") <= s[0].f("mode")) {
					return fmt.Errorf("%s: modes %v", name, s)
				}
			}
			return nil
		}},
}

var chronosStrategies = []string{"Clone", "Speculative-Restart", "Speculative-Resume"}

var statusRE = regexp.MustCompile(`^(holds|known-divergence: item [0-9]+)$`)

// TestPaperClaims checks every claim against what run(w, "all", jobs, 1)
// prints (printedAll, the figures golden's run) at 60 jobs and, unless -short or -race is set, at the command's
// default 270.
func TestPaperClaims(t *testing.T) {
	for _, jobs := range []int{60, 270} {
		t.Run(fmt.Sprintf("jobs%d", jobs), func(t *testing.T) {
			if jobs > 60 && (testing.Short() || race.Enabled) {
				t.Skip("the default-size run takes several seconds; skipped under -short and -race")
			}
			p := parsePrinted(string(printedAll(t, jobs)))
			for _, c := range claims {
				t.Run(c.id, func(t *testing.T) {
					if !statusRE.MatchString(c.status) {
						t.Fatalf("status %q is neither holds nor known-divergence: item N", c.status)
					}
					err := c.check(p)
					switch {
					case c.status == "holds" && err != nil:
						t.Errorf("%s: %s: %v", c.figure, c.text, err)
					case c.status != "holds" && err == nil:
						t.Errorf("%s: %s: now holds; its status says %q", c.figure, c.text, c.status)
					case err != nil:
						t.Logf("%s (%s): %v", c.figure, c.status, err)
					}
				})
			}
		})
	}
}

// printed holds each printed table by the title before the colon of its
// "=== … ===" line ("Figure 2", "Table I").
type printed map[string][]row

// row is one table row keyed by column header.
type row map[string]string

// f reads a numeric cell, with "*tmin" and "-inf" as printed; a missing or
// unreadable cell is NaN, which every claim's comparison fails on.
func (r row) f(col string) float64 {
	v, err := strconv.ParseFloat(strings.TrimSuffix(r[col], "*tmin"), 64)
	if err != nil {
		return math.NaN()
	}
	return v
}

// parsePrinted cuts each table's rows into cells at the column spans of its
// dashed separator line; the charts between tables are skipped.
func parsePrinted(out string) printed {
	p := printed{}
	lines := strings.Split(out, "\n")
	for i := 0; i+2 < len(lines); i++ {
		title, ok := strings.CutPrefix(lines[i], "=== ")
		if !ok {
			continue
		}
		name, _, _ := strings.Cut(title, ":")
		spans := dashRuns(lines[i+2])
		header := cells(lines[i+1], spans)
		var rows []row
		for i += 3; i < len(lines) && lines[i] != ""; i++ {
			r := row{}
			for j, c := range cells(lines[i], spans) {
				r[header[j]] = c
			}
			rows = append(rows, r)
		}
		p[name] = rows
	}
	return p
}

// dashRuns returns the [start, end) byte spans of the runs of '-' in a
// separator line.
func dashRuns(sep string) [][2]int {
	var spans [][2]int
	for i := 0; i < len(sep); i++ {
		if sep[i] != '-' {
			continue
		}
		j := i
		for j < len(sep) && sep[j] == '-' {
			j++
		}
		spans = append(spans, [2]int{i, j})
		i = j
	}
	return spans
}

func cells(line string, spans [][2]int) []string {
	out := make([]string, len(spans))
	for k, s := range spans {
		lo, hi := min(s[0], len(line)), min(s[1], len(line))
		out[k] = strings.TrimSpace(line[lo:hi])
	}
	return out
}

// series groups a table's rows by one column, each group in printed order.
func (p printed) series(table, col string) map[string][]row {
	out := map[string][]row{}
	for _, r := range p[table] {
		out[r[col]] = append(out[r[col]], r)
	}
	return out
}

// strategies indexes rows by their Strategy cell.
func strategies(rows []row) map[string]row {
	out := map[string]row{}
	for _, r := range rows {
		out[r["Strategy"]] = r
	}
	return out
}

// notRising reports the first step of a series whose cost exceeds slack
// times the step before.
func notRising(name string, s []row, coord string, slack float64) error {
	for i := 1; i < len(s); i++ {
		if !(s[i].f("Cost") <= slack*s[i-1].f("Cost")) {
			return fmt.Errorf("%s: cost %s at %s %s after %s", name, s[i]["Cost"], coord, s[i][coord], s[i-1]["Cost"])
		}
	}
	return nil
}
