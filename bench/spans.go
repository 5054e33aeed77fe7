package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one traced interval: a request as a client saw it, or a batch of
// in-process calls into one layer function. Times are nanoseconds since the
// run's epoch.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0: none
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Replica  int    `json:"replica"`
	Calls    int    `json:"calls"` // layer spans: calls the interval covers
	Due      int64  `json:"due_ns"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Status   int    `json:"status"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	epoch time.Time
	spans []span
}

func (l *spanLog) add(s span) int {
	s.ID = len(l.spans) + 1
	l.spans = append(l.spans, s)
	return s.ID
}

// addRequests turns a traced phase's recorders into request spans under one
// phase span; phaseStart is when the phase's clock began.
func (l *spanLog) addRequests(phase, workload string, phaseStart time.Time, recs []*recorder) {
	off := int64(phaseStart.Sub(l.epoch))
	parent := l.add(span{Name: phase, Workload: workload, Due: off, Start: off, End: int64(time.Since(l.epoch))})
	for _, r := range recs {
		for i := range r.start {
			l.add(span{
				Parent: parent, Name: kindNames[r.kind[i]], Workload: workload,
				Replica: int(r.replica[i]), Due: off + r.due[i], Start: off + r.start[i],
				End:    off + r.due[i] + r.lat[i], // latency runs from the due instant
				Status: int(r.status[i]),
			})
		}
	}
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // the success path checks Close itself
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w) // one object per line
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}
