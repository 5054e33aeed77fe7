// Package workload defines the benchmark workloads of the paper's testbed
// evaluation — Sort, SecondarySort, TeraSort and WordCount — as calibrated
// task-time profiles.
//
// The benchmarks matter to the evaluation only through the execution-time
// distribution their map tasks induce; the paper measures these to be Pareto
// with tail index beta < 2 under background contention. Each Profile fixes
// (tmin, beta) along with JVM startup overheads so that deadlines of
// 100 s / 150 s have the same "deadline sensitivity" the paper reports.
package workload

import (
	"chronos/internal/mapreduce"
	"chronos/internal/pareto"
)

// Class partitions benchmarks by bottleneck resource.
type Class int

// Benchmark resource classes.
const (
	// IOBound benchmarks are dominated by disk/network (Sort,
	// SecondarySort).
	IOBound Class = iota + 1
	// CPUBound benchmarks are dominated by compute (WordCount, TeraSort's
	// map phase).
	CPUBound
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case IOBound:
		return "io-bound"
	case CPUBound:
		return "cpu-bound"
	default:
		return "unknown"
	}
}

// Profile is a calibrated benchmark description.
type Profile struct {
	// Name is the benchmark name as it appears in the paper's figures.
	Name string
	// Class is the bottleneck resource.
	Class Class
	// Dist is the intrinsic map-task execution time distribution.
	Dist pareto.Dist
	// JVM is the attempt startup-delay model.
	JVM mapreduce.JVMModel
	// Deadline is the paper's deadline for this benchmark (100 s for Sort
	// and TeraSort, 150 s for SecondarySort and WordCount).
	Deadline float64
}

// The four benchmarks of Figure 2, calibrated so that a single map attempt
// is Pareto with beta < 2 (heavy-tailed, as measured on the paper's
// contended testbed) and the paper's deadlines are moderately tight.
var (
	// Sort is the I/O-bound shuffle benchmark; workload generated by
	// RandomWriter.
	Sort = Profile{
		Name:     "Sort",
		Class:    IOBound,
		Dist:     pareto.MustNew(30, 1.35),
		JVM:      mapreduce.JVMModel{Min: 2, Max: 4},
		Deadline: 100,
	}
	// SecondarySort sorts composite keys; workload is generated random
	// number pairs.
	SecondarySort = Profile{
		Name:     "SecondarySort",
		Class:    IOBound,
		Dist:     pareto.MustNew(40, 1.35),
		JVM:      mapreduce.JVMModel{Min: 2, Max: 4},
		Deadline: 150,
	}
	// TeraSort's map phase is CPU-bound; workload generated by TeraGen.
	TeraSort = Profile{
		Name:     "TeraSort",
		Class:    CPUBound,
		Dist:     pareto.MustNew(28, 1.45),
		JVM:      mapreduce.JVMModel{Min: 2, Max: 4},
		Deadline: 100,
	}
	// WordCount is the canonical CPU-bound benchmark.
	WordCount = Profile{
		Name:     "WordCount",
		Class:    CPUBound,
		Dist:     pareto.MustNew(38, 1.5),
		JVM:      mapreduce.JVMModel{Min: 2, Max: 4},
		Deadline: 150,
	}
)

// Profiles returns the Figure 2 benchmarks in paper order.
func Profiles() []Profile {
	return []Profile{Sort, SecondarySort, TeraSort, WordCount}
}
