package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending-sorted sample: the smallest value with at least p% of the sample
// at or below it. An empty sample reads 0.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(float64(len(sorted))*p/100 + 0.999999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median of an unsorted float sample (sorts a copy); 0 when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method), which is what
// the acceptance check computes spreads with. Needs at least two values.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - j*4 // after the clamp, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// procTimes extracts utime+stime, in clock ticks, from the contents of
// /proc/<pid>/stat. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func procTimes(stat string) (ticks uint64, err error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	// After ") " comes field 3 (state); utime and stime are fields 14 and 15.
	f := strings.Fields(stat[end+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want >= 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat: stime: %w", err)
	}
	return utime + stime, nil
}

// procPeakRSS extracts VmHWM (the resident-set high-water mark), in kB, from
// the contents of /proc/<pid>/status.
func procPeakRSS(status string) (kb uint64, err error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: malformed VmHWM line %q", line)
		}
		return strconv.ParseUint(f[0], 10, 64)
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// promSample is one series of a Prometheus text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// parseProm reads the Prometheus text format as chronosd writes it: comment
// lines skipped, `name value` or `name{k="v",...} value`. Label values are
// Go-quoted strings (chronosd formats them with %q).
func parseProm(r io.Reader) ([]promSample, error) {
	var out []promSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s := promSample{}
		rest := line
		if open := strings.IndexByte(line, '{'); open >= 0 {
			s.name = line[:open]
			s.labels = map[string]string{}
			rest = line[open+1:]
			for {
				eq := strings.IndexByte(rest, '=')
				if eq < 0 {
					return nil, fmt.Errorf("prom: malformed labels in %q", line)
				}
				key := rest[:eq]
				quoted, err := strconv.QuotedPrefix(rest[eq+1:])
				if err != nil {
					return nil, fmt.Errorf("prom: label value in %q: %w", line, err)
				}
				val, err := strconv.Unquote(quoted)
				if err != nil {
					return nil, fmt.Errorf("prom: label value in %q: %w", line, err)
				}
				s.labels[key] = val
				rest = rest[eq+1+len(quoted):]
				if strings.HasPrefix(rest, ",") {
					rest = rest[1:]
					continue
				}
				if strings.HasPrefix(rest, "}") {
					rest = rest[1:]
					break
				}
				return nil, fmt.Errorf("prom: malformed labels in %q", line)
			}
		} else {
			sp := strings.IndexByte(line, ' ')
			if sp < 0 {
				return nil, fmt.Errorf("prom: no value in %q", line)
			}
			s.name, rest = line[:sp], line[sp:]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			return nil, fmt.Errorf("prom: value in %q: %w", line, err)
		}
		s.value = v
		out = append(out, s)
	}
	return out, sc.Err()
}

// scrape is the sum of several replicas' expositions.
type scrape []promSample

// sum adds up every series called name whose labels include all of match
// (given as key, value pairs).
func (s scrape) sum(name string, match ...string) float64 {
	total := 0.0
next:
	for _, sm := range s {
		if sm.name != name {
			continue
		}
		for i := 0; i+1 < len(match); i += 2 {
			if sm.labels[match[i]] != match[i+1] {
				continue next
			}
		}
		total += sm.value
	}
	return total
}
