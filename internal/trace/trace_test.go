package trace

import (
	"math"
	"sort"
	"testing"
)

func TestGenerateDefault(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	jobs, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != cfg.Jobs {
		t.Fatalf("generated %d jobs, want %d", len(jobs), cfg.Jobs)
	}
	arrivals := make([]float64, len(jobs))
	for i, j := range jobs {
		arrivals[i] = j.Arrival
		if j.ID != i {
			t.Errorf("job %d has ID %d (want arrival-order keys)", i, j.ID)
		}
		if j.Arrival < 0 || j.Arrival > cfg.Horizon {
			t.Errorf("job %d arrival %v outside [0, %v]", i, j.Arrival, cfg.Horizon)
		}
		if j.NumTasks < cfg.MinTasks || j.NumTasks > cfg.MaxTasks {
			t.Errorf("job %d tasks %d outside [%d, %d]", i, j.NumTasks, cfg.MinTasks, cfg.MaxTasks)
		}
		if err := j.Dist.Validate(); err != nil {
			t.Errorf("job %d dist: %v", i, err)
		}
		if j.Dist.Beta <= cfg.BetaLow-1e-9 || j.Dist.Beta > cfg.BetaHigh+1e-9 {
			t.Errorf("job %d beta %v outside bounds", i, j.Dist.Beta)
		}
		want := cfg.DeadlineRatio * j.Dist.Mean()
		if math.Abs(j.Deadline-want) > 1e-9 {
			t.Errorf("job %d deadline %v, want ratio*mean %v", i, j.Deadline, want)
		}
	}
	if !sort.Float64sAreSorted(arrivals) {
		t.Error("jobs not sorted by arrival")
	}
	// Task-count distribution must be heavy-tailed: log-uniform over
	// [5, 2000] gives a median near sqrt(5*2000) = 100.
	counts := make([]int, len(jobs))
	for i, j := range jobs {
		counts[i] = j.NumTasks
	}
	sort.Ints(counts)
	median := counts[len(counts)/2]
	if median < 30 || median > 330 {
		t.Errorf("median task count %d, want log-uniform-ish ~100", median)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultGeneratorConfig()
	a, _ := Generate(cfg)
	b, _ := Generate(cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("trace generation not deterministic")
		}
	}
	cfg.Seed = 2
	c, _ := Generate(cfg)
	same := 0
	for i := range a {
		if a[i].NumTasks == c[i].NumTasks {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateValidation(t *testing.T) {
	mutations := []func(*GeneratorConfig){
		func(c *GeneratorConfig) { c.Jobs = 0 },
		func(c *GeneratorConfig) { c.Horizon = 0 },
		func(c *GeneratorConfig) { c.MinTasks = 0 },
		func(c *GeneratorConfig) { c.MaxTasks = 1 },
		func(c *GeneratorConfig) { c.TMinLow = 0 },
		func(c *GeneratorConfig) { c.BetaLow = 0.9 },
		func(c *GeneratorConfig) { c.DeadlineRatio = 1 },
	}
	for i, m := range mutations {
		cfg := DefaultGeneratorConfig()
		m(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}
