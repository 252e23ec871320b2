package router

import (
	"strconv"
	"time"

	"repro/internal/obs"
)

// routerMetrics is the pgrouter_* instrument set.
type routerMetrics struct {
	requests   *obs.CounterVec   // route, status
	latency    *obs.HistogramVec // route
	attempts   *obs.CounterVec   // replica, outcome
	upstreamS  *obs.Histogram
	retries    *obs.Counter
	hedges     *obs.Counter
	hedgeWins  *obs.Counter
	sheds      *obs.Counter
	failovers  *obs.Counter
	replays    *obs.Counter
	merged     *obs.Counter
	replicaUp  *obs.GaugeVec // replica
	breakerNum *obs.GaugeVec // replica: 0 closed, 1 half-open, 2 open
}

func newRouterMetrics(reg *obs.Registry, rt *Router) *routerMetrics {
	m := &routerMetrics{
		requests: reg.CounterVec("pgrouter_requests_total",
			"Client requests by route and final status.", "route", "status"),
		latency: reg.HistogramVec("pgrouter_request_seconds",
			"End-to-end router latency by route.", obs.ExpBuckets(1e-4, 10, 7), "route"),
		attempts: reg.CounterVec("pgrouter_upstream_attempts_total",
			"Upstream attempts by replica and outcome (ok, error, truncated, status_*, canceled).",
			"replica", "outcome"),
		upstreamS: reg.Histogram("pgrouter_upstream_seconds",
			"Successful upstream attempt latency.", obs.ExpBuckets(1e-4, 10, 7)),
		retries: reg.Counter("pgrouter_retries_total",
			"Attempts moved to the next ring replica."),
		hedges: reg.Counter("pgrouter_hedges_total",
			"Hedged second attempts launched for idempotent reads."),
		hedgeWins: reg.Counter("pgrouter_hedge_wins_total",
			"Hedged attempts that beat the primary."),
		sheds: reg.Counter("pgrouter_shed_total",
			"Requests shed with 429 because no usable replica owned the key."),
		failovers: reg.Counter("pgrouter_session_failovers_total",
			"Sessions resumed on another replica after their owner failed."),
		replays: reg.Counter("pgrouter_session_replays_total",
			"Advances replayed on the failover replica after a mid-stream failure."),
		merged: reg.Counter("pgrouter_singleflight_merged_total",
			"/reduce requests coalesced into an already in-flight build."),
		replicaUp: reg.GaugeVec("pgrouter_replica_up",
			"Last health-probe verdict per replica (1 = ready).", "replica"),
		breakerNum: reg.GaugeVec("pgrouter_breaker_state",
			"Breaker state per replica (0 = closed, 1 = half-open, 2 = open).", "replica"),
	}
	reg.GaugeFunc("pgrouter_replicas_usable",
		"Replicas currently accepting routed traffic.", func() float64 {
			now := time.Now()
			n := 0
			for _, rep := range rt.order {
				if rep.usable(now) {
					n++
				}
			}
			return float64(n)
		})
	reg.GaugeFunc("pgrouter_sessions_tracked",
		"Transient sessions with a sticky replica assignment.", func() float64 {
			return float64(rt.sessionCount())
		})
	reg.GaugeFunc("pgrouter_inflight",
		"Requests currently in flight to any replica.", func() float64 {
			var n int64
			for _, rep := range rt.order {
				n += rep.inflight.Load()
			}
			return float64(n)
		})
	reg.CounterFunc("pgrouter_breaker_trips_total",
		"Breaker trips summed over replicas.", func() int64 {
			var n int64
			for _, rep := range rt.order {
				n += rep.breaker.Trips()
			}
			return n
		})
	return m
}

func (m *routerMetrics) request(route string, status int, d time.Duration) {
	m.requests.With(route, strconv.Itoa(status)).Inc()
	m.latency.With(route).Observe(d.Seconds())
}

// attempt records an upstream outcome and refreshes the replica's breaker
// gauge (breaker transitions happen inside attempt outcomes, so this is the
// natural refresh point).
func (m *routerMetrics) attempt(rep *replica, outcome string) {
	m.attempts.With(rep.addr, outcome).Inc()
	m.breakerNum.With(rep.addr).Set(breakerGaugeValue(rep.breaker.State()))
}

// probe records a health-probe verdict (wired as the prober's onProbe hook).
func (m *routerMetrics) probe(rep *replica, ok bool) {
	v := int64(0)
	if ok {
		v = 1
	}
	m.replicaUp.With(rep.addr).Set(v)
	m.breakerNum.With(rep.addr).Set(breakerGaugeValue(rep.breaker.State()))
}

func breakerGaugeValue(s breakerState) int64 {
	switch s {
	case breakerClosed:
		return 0
	case breakerHalfOpen:
		return 1
	default:
		return 2
	}
}

func (m *routerMetrics) upstream(d time.Duration) {
	m.upstreamS.Observe(d.Seconds())
}

func (m *routerMetrics) retry() {
	m.retries.Inc()
}

func (m *routerMetrics) hedge() {
	m.hedges.Inc()
}

func (m *routerMetrics) hedgeWin() {
	m.hedgeWins.Inc()
}

func (m *routerMetrics) shed() {
	m.sheds.Inc()
}

func (m *routerMetrics) failover() {
	m.failovers.Inc()
}

func (m *routerMetrics) replay() {
	m.replays.Inc()
}

func (m *routerMetrics) buildMerged() {
	m.merged.Inc()
}
