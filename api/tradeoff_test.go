package api

import (
	"net/url"
	"strings"
	"testing"

	"chronos"
)

// TestTradeoffQueryRoundTrip: what Values sends, ParseTradeoffQuery reads
// back field for field — the property the shared table exists for.
func TestTradeoffQueryRoundTrip(t *testing.T) {
	q := TradeoffQuery{
		Strategy: "resume",
		Job:      chronos.JobParams{Tasks: 10, Deadline: 100, TMin: 10, Beta: 1.5, TauEst: 30, TauKill: 60, PhiEst: 0.25},
		Econ:     chronos.Econ{Theta: 2e-4, UnitPrice: 2, RMin: 0.5},
		MaxR:     6,
	}
	v := q.Values()
	if len(v) != 1+len(tradeoffParams) {
		t.Errorf("Values() sent %d parameters, want strategy plus all %d of the table: %v", len(v), len(tradeoffParams), v)
	}
	got, err := ParseTradeoffQuery(v)
	if err != nil {
		t.Fatal(err)
	}
	if got != q {
		t.Errorf("round trip = %+v, want %+v", got, q)
	}
}

// TestTradeoffQueryDefaults: zero fields are not sent (tasks excepted), and
// the server reads an absent parameter as its default.
func TestTradeoffQueryDefaults(t *testing.T) {
	v := TradeoffQuery{Strategy: "clone", MaxR: -1}.Values()
	if got := v.Encode(); got != "strategy=clone&tasks=0" {
		t.Errorf("Values() = %q, want strategy and tasks only", got)
	}
	got, err := ParseTradeoffQuery(v)
	if err != nil {
		t.Fatal(err)
	}
	want := TradeoffQuery{Strategy: "clone", Econ: chronos.Econ{Theta: 1e-4, UnitPrice: 1}, MaxR: 8}
	if got != want {
		t.Errorf("parsed = %+v, want %+v", got, want)
	}
}

// TestParseTradeoffQueryErrors: the first bad parameter in table order is the
// one reported, by name.
func TestParseTradeoffQueryErrors(t *testing.T) {
	for _, c := range []struct{ query, want string }{
		{"tasks=ten", "query param tasks: "},
		{"tasks=1.5", "query param tasks: "},
		{"maxR=z&rmin=x&deadline=y", "query param deadline: "},
		{"maxR=z", "query param maxR: "},
	} {
		v, err := url.ParseQuery(c.query)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ParseTradeoffQuery(v); err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want prefix %q", c.query, err, c.want)
		}
	}
}
