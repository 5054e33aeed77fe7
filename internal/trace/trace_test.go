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

func TestTotalTasks(t *testing.T) {
	jobs := []JobRecord{{NumTasks: 5}, {NumTasks: 7}}
	if got := TotalTasks(jobs); got != 12 {
		t.Errorf("TotalTasks = %d, want 12", got)
	}
}

func TestGenerateSpotPrices(t *testing.T) {
	cfg := SpotConfig{Mean: 0.05, Volatility: 0.1, Reversion: 0.2, Step: 60, Horizon: 36000, Seed: 3}
	s, err := GenerateSpotPrices(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Times) != len(s.Prices) || len(s.Times) != int(cfg.Horizon/cfg.Step)+1 {
		t.Fatalf("%d times, %d prices, want %v of each", len(s.Times), len(s.Prices), cfg.Horizon/cfg.Step+1)
	}
	for i := 1; i < len(s.Times); i++ {
		if s.Times[i] <= s.Times[i-1] {
			t.Fatalf("spot times not increasing at %d", i)
		}
	}
	// Mean reversion keeps the time average near the configured mean.
	if m := s.Integral(0, cfg.Horizon) / cfg.Horizon; math.Abs(m-cfg.Mean)/cfg.Mean > 0.25 {
		t.Errorf("series mean %v, want near %v", m, cfg.Mean)
	}
	// The floor holds.
	for _, p := range s.Prices {
		if p < cfg.Mean*0.2-1e-12 {
			t.Errorf("price %v below floor", p)
		}
	}
}

func TestGenerateSpotPricesValidation(t *testing.T) {
	bad := []SpotConfig{
		{Mean: 0, Step: 1, Horizon: 10, Reversion: 0.5},
		{Mean: 1, Step: 0, Horizon: 10, Reversion: 0.5},
		{Mean: 1, Step: 10, Horizon: 5, Reversion: 0.5},
		{Mean: 1, Step: 1, Horizon: 10, Reversion: 0},
		{Mean: 1, Step: 1, Horizon: 10, Reversion: 1.5},
	}
	for i, cfg := range bad {
		if _, err := GenerateSpotPrices(cfg); err == nil {
			t.Errorf("bad spot config %d accepted", i)
		}
	}
}

func TestSpotIntegral(t *testing.T) {
	s := SpotPrices{Times: []float64{0, 10, 30}, Prices: []float64{1, 4, 9}}
	tests := []struct {
		a, b float64
		want float64
	}{
		{0, 10, 10},  // whole first segment
		{0, 30, 90},  // 1*10 + 4*20
		{5, 15, 25},  // 1*5 + 4*5
		{30, 40, 90}, // last price extends
		{-10, 0, 10}, // first price extends backwards
		{12, 12, 0},  // empty interval
		{25, 35, 65}, // 4*5 + 9*5
	}
	for _, tt := range tests {
		if got := s.Integral(tt.a, tt.b); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("Integral(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
	// Reversed bounds negate.
	if got := s.Integral(15, 5); math.Abs(got+25) > 1e-9 {
		t.Errorf("reversed Integral = %v, want -25", got)
	}
}
