package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// Trace I/O: job streams round-trip through a small CSV schema so that
// generated traces can be archived, inspected, or replaced with records
// distilled from a real cluster trace (the Google trace's job events reduce
// to exactly these columns once a Pareto law is fitted to each job's task
// times).
//
// Schema (with header):
//
//	id,arrival,num_tasks,tmin,beta,deadline

// csvHeader is the canonical column order.
var csvHeader = []string{"id", "arrival", "num_tasks", "tmin", "beta", "deadline"}

// WriteCSV encodes the job stream.
func WriteCSV(w io.Writer, jobs []JobRecord) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("trace: write header: %w", err)
	}
	for _, j := range jobs {
		rec := []string{
			strconv.Itoa(j.ID),
			formatF(j.Arrival),
			strconv.Itoa(j.NumTasks),
			formatF(j.Dist.TMin),
			formatF(j.Dist.Beta),
			formatF(j.Deadline),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: write job %d: %w", j.ID, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV decodes a job stream written by WriteCSV (or hand-assembled in
// the same schema). Records are validated: positive task counts and tmin,
// beta > 1, positive deadlines, non-negative arrivals.
func ReadCSV(r io.Reader) ([]JobRecord, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)

	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: read header: %w", err)
	}
	for i, want := range csvHeader {
		if header[i] != want {
			return nil, fmt.Errorf("trace: header column %d is %q, want %q", i, header[i], want)
		}
	}

	var jobs []JobRecord
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		job, err := parseRecord(rec)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		jobs = append(jobs, job)
	}
	return jobs, nil
}

// parseRecord decodes and validates one CSV row.
func parseRecord(rec []string) (JobRecord, error) {
	id, err := strconv.Atoi(rec[0])
	if err != nil {
		return JobRecord{}, fmt.Errorf("bad id %q", rec[0])
	}
	arrival, err := parseF(rec[1], "arrival")
	if err != nil {
		return JobRecord{}, err
	}
	numTasks, err := strconv.Atoi(rec[2])
	if err != nil {
		return JobRecord{}, fmt.Errorf("bad num_tasks %q", rec[2])
	}
	tmin, err := parseF(rec[3], "tmin")
	if err != nil {
		return JobRecord{}, err
	}
	beta, err := parseF(rec[4], "beta")
	if err != nil {
		return JobRecord{}, err
	}
	deadline, err := parseF(rec[5], "deadline")
	if err != nil {
		return JobRecord{}, err
	}

	switch {
	case arrival < 0:
		return JobRecord{}, fmt.Errorf("negative arrival %v", arrival)
	case numTasks < 1:
		return JobRecord{}, fmt.Errorf("num_tasks %d < 1", numTasks)
	case tmin <= 0:
		return JobRecord{}, fmt.Errorf("tmin %v <= 0", tmin)
	case beta <= 1:
		return JobRecord{}, fmt.Errorf("beta %v <= 1", beta)
	case deadline <= 0:
		return JobRecord{}, fmt.Errorf("deadline %v <= 0", deadline)
	}
	job := JobRecord{
		ID:       id,
		Arrival:  arrival,
		NumTasks: numTasks,
		Deadline: deadline,
	}
	job.Dist.TMin = tmin
	job.Dist.Beta = beta
	return job, nil
}

func formatF(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func parseF(s, field string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q", field, s)
	}
	return v, nil
}
