package chronos

import (
	"encoding/json"
	"fmt"
	"strings"
)

// ParseStrategy resolves a strategy name as it appears in the paper, the CLI
// flags, or the chronosd wire format. Matching is case-insensitive and
// tolerates the common short forms ("clone", "restart", "resume").
func ParseStrategy(name string) (Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "clone":
		return Clone, nil
	case "speculative-restart", "s-restart", "restart":
		return SpeculativeRestart, nil
	case "speculative-resume", "s-resume", "resume":
		return SpeculativeResume, nil
	case "hadoop-ns", "hadoopns":
		return HadoopNS, nil
	case "hadoop-s", "hadoops":
		return HadoopS, nil
	case "mantri":
		return Mantri, nil
	default:
		return 0, fmt.Errorf("chronos: unknown strategy %q", name)
	}
}

// MarshalJSON encodes the strategy as its canonical name, so plans read
// {"strategy":"Speculative-Resume",...} on the wire instead of a bare enum.
// Out-of-range values (including the zero Strategy — the enum is 1-based)
// are an error: their String() form "Unknown" can never be unmarshaled, so
// silently emitting it would produce JSON that no decoder round-trips.
// (Surfaced by FuzzPlanRequestJSON.)
func (s Strategy) MarshalJSON() ([]byte, error) {
	if s < Clone || s > Mantri {
		return nil, fmt.Errorf("chronos: cannot marshal invalid strategy %d", int(s))
	}
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts either a strategy name (preferred) or the numeric
// enum value, so hand-written requests and round-tripped plans both decode.
func (s *Strategy) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err == nil {
		parsed, perr := ParseStrategy(name)
		if perr != nil {
			return perr
		}
		*s = parsed
		return nil
	}
	var n int
	if err := json.Unmarshal(data, &n); err != nil {
		return fmt.Errorf("chronos: strategy must be a name or integer: %w", err)
	}
	if n < int(Clone) || n > int(Mantri) {
		return fmt.Errorf("chronos: strategy %d out of range", n)
	}
	*s = Strategy(n)
	return nil
}
