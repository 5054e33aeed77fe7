package analysis

// Model is what the optimizer needs of an analytic model. PoCD and
// MachineTime are the two sides of the paper's tradeoff; Gamma is the
// Theorem 8 concavity threshold. *Evaluator, the paper's single-wave closed
// forms, is the only production implementation; the others are test fakes
// that wrap it to count probes.
type Model interface {
	// Name returns the canonical strategy name ("Clone",
	// "Speculative-Restart", "Speculative-Resume").
	Name() string
	// PoCD returns the probability that the job completes before its
	// deadline when r extra attempts are used (Theorems 1, 3, 5).
	PoCD(r int) float64
	// MachineTime returns the expected total machine running time of the
	// job (the execution-cost side of the tradeoff; Theorems 2, 4, 6).
	MachineTime(r int) float64
	// Gamma returns the threshold above which PoCD — and hence the net
	// utility — is concave in r (Theorem 8).
	Gamma() float64
	// Params exposes the underlying analytic parameters.
	Params() Params
}

// Strategy enumerates the analyzable strategies.
type Strategy int

// The three Chronos strategies.
const (
	StrategyClone Strategy = iota + 1
	StrategyRestart
	StrategyResume
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategyClone:
		return "Clone"
	case StrategyRestart:
		return "Speculative-Restart"
	case StrategyResume:
		return "Speculative-Resume"
	default:
		return "Unknown"
	}
}

// NewModel returns the closed forms bound to (s, p). It panics on a strategy
// outside the three above.
func NewModel(s Strategy, p Params) *Evaluator {
	e := new(Evaluator)
	e.Reset(s, p)
	return e
}

// Strategies lists the three Chronos strategies in paper order.
func Strategies() []Strategy {
	return []Strategy{StrategyClone, StrategyRestart, StrategyResume}
}
