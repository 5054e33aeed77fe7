package experiment

import (
	"fmt"

	"chronos/internal/metrics"
)

// Fig5Config parameterizes the optimal-r histogram experiment of Figure 5:
// the distribution of the optimizer's chosen r for Clone and
// Speculative-Resume at theta = 1e-5 and theta = 1e-4.
type Fig5Config struct {
	// Fig3 supplies the underlying sweep; only the two thetas and two
	// strategies of Figure 5 are consumed.
	Fig3 Fig3Config
}

// DefaultFig5Config matches the paper's pairing.
func DefaultFig5Config() Fig5Config {
	cfg := DefaultFig3Config()
	cfg.Thetas = []float64{1e-5, 1e-4}
	return Fig5Config{Fig3: cfg}
}

// Fig5Series is one histogram of Figure 5.
type Fig5Series struct {
	Strategy string
	Theta    float64
	Hist     metrics.Histogram
}

// RunFigure5 produces the four histograms (Clone and S-Resume at each
// theta) from a Figure 3 sweep restricted to those strategies.
func RunFigure5(r Runner, cfg Fig5Config) ([]Fig5Series, error) {
	rows, err := RunFigure3(r, cfg.Fig3)
	if err != nil {
		return nil, err
	}
	var out []Fig5Series
	for _, row := range rows {
		if row.Strategy != "Clone" && row.Strategy != "Speculative-Resume" {
			continue
		}
		out = append(out, Fig5Series{Strategy: row.Strategy, Theta: row.Theta, Hist: row.RHist})
	}
	return out, nil
}

// Fig5Table renders the histograms as frequency rows.
func Fig5Table(series []Fig5Series) *metrics.Table {
	t := metrics.NewTable("Strategy", "theta", "r-histogram (r:count)", "mode")
	for _, s := range series {
		mode, _ := s.Hist.Mode()
		t.AddRow(s.Strategy,
			metrics.FormatFloat(s.Theta, 6),
			s.Hist.String(),
			fmt.Sprintf("%d", mode))
	}
	return t
}
