package api

import (
	"fmt"
	"net/url"
	"strconv"

	"chronos"
)

// TradeoffQuery is the query string of GET /v1/tradeoff: the PoCD/cost
// frontier of one strategy for one job, r = 0..MaxR.
type TradeoffQuery struct {
	Strategy string
	Job      chronos.JobParams
	Econ     chronos.Econ
	MaxR     int
}

// tradeoffParams is the parameter table behind Values and
// ParseTradeoffQuery, in the order a parse error is reported. def is what the
// server assumes for an absent parameter; exactly one of i and f is set.
var tradeoffParams = []struct {
	name string
	i    func(*TradeoffQuery) *int
	f    func(*TradeoffQuery) *float64
	def  float64
	// required parameters are sent even when zero.
	required bool
}{
	{name: "tasks", i: func(q *TradeoffQuery) *int { return &q.Job.Tasks }, required: true},
	{name: "deadline", f: func(q *TradeoffQuery) *float64 { return &q.Job.Deadline }},
	{name: "tmin", f: func(q *TradeoffQuery) *float64 { return &q.Job.TMin }},
	{name: "beta", f: func(q *TradeoffQuery) *float64 { return &q.Job.Beta }},
	{name: "tauEst", f: func(q *TradeoffQuery) *float64 { return &q.Job.TauEst }},
	{name: "tauKill", f: func(q *TradeoffQuery) *float64 { return &q.Job.TauKill }},
	{name: "phiEst", f: func(q *TradeoffQuery) *float64 { return &q.Job.PhiEst }},
	{name: "theta", f: func(q *TradeoffQuery) *float64 { return &q.Econ.Theta }, def: 1e-4},
	{name: "price", f: func(q *TradeoffQuery) *float64 { return &q.Econ.UnitPrice }, def: 1},
	{name: "rmin", f: func(q *TradeoffQuery) *float64 { return &q.Econ.RMin }},
	{name: "maxR", i: func(q *TradeoffQuery) *int { return &q.MaxR }, def: 8},
}

// Values encodes q for the request URL. A zero float and a non-positive MaxR
// are left out, so the server's default applies.
func (q TradeoffQuery) Values() url.Values {
	v := url.Values{"strategy": {q.Strategy}}
	for _, p := range tradeoffParams {
		if p.f != nil {
			if x := *p.f(&q); x != 0 {
				v.Set(p.name, strconv.FormatFloat(x, 'g', -1, 64))
			}
		} else if n := *p.i(&q); p.required || n > 0 {
			v.Set(p.name, strconv.Itoa(n))
		}
	}
	return v
}

// ParseTradeoffQuery decodes a request's query, filling absent parameters
// with the server's defaults (theta 1e-4, price 1, maxR 8, zero otherwise).
// The strategy name is carried through unparsed.
func ParseTradeoffQuery(v url.Values) (TradeoffQuery, error) {
	q := TradeoffQuery{Strategy: v.Get("strategy")}
	for _, p := range tradeoffParams {
		s := v.Get(p.name)
		var err error
		switch {
		case p.f != nil && s == "":
			*p.f(&q) = p.def
		case p.f != nil:
			*p.f(&q), err = strconv.ParseFloat(s, 64)
		case s == "":
			*p.i(&q) = int(p.def)
		default:
			*p.i(&q), err = strconv.Atoi(s)
		}
		if err != nil {
			return q, fmt.Errorf("query param %s: %v", p.name, err)
		}
	}
	return q, nil
}
