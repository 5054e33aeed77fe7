package workload

import "testing"

func TestProfilesAreValid(t *testing.T) {
	for _, p := range Profiles() {
		if err := p.Dist.Validate(); err != nil {
			t.Errorf("%s: invalid dist: %v", p.Name, err)
		}
		if p.Dist.Beta >= 2 {
			t.Errorf("%s: beta %v >= 2, paper measures beta < 2", p.Name, p.Dist.Beta)
		}
		if p.Deadline <= p.Dist.TMin {
			t.Errorf("%s: deadline %v <= tmin %v", p.Name, p.Deadline, p.Dist.TMin)
		}
		if p.JVM.Min < 0 || p.JVM.Max < p.JVM.Min {
			t.Errorf("%s: invalid JVM delay [%v, %v]", p.Name, p.JVM.Min, p.JVM.Max)
		}
	}
}

func TestPaperDeadlines(t *testing.T) {
	// Figure 2: D=100 for Sort and TeraSort, D=150 for SecondarySort and
	// WordCount.
	if Sort.Deadline != 100 || TeraSort.Deadline != 100 {
		t.Error("Sort/TeraSort deadline must be 100")
	}
	if SecondarySort.Deadline != 150 || WordCount.Deadline != 150 {
		t.Error("SecondarySort/WordCount deadline must be 150")
	}
}

func TestClassAssignment(t *testing.T) {
	if Sort.Class != IOBound || SecondarySort.Class != IOBound {
		t.Error("Sort/SecondarySort must be I/O bound")
	}
	if TeraSort.Class != CPUBound || WordCount.Class != CPUBound {
		t.Error("TeraSort/WordCount must be CPU bound")
	}
	if IOBound.String() != "io-bound" || CPUBound.String() != "cpu-bound" || Class(0).String() != "unknown" {
		t.Error("Class.String misbehaves")
	}
}
