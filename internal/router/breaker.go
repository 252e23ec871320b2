package router

import (
	"sync"
	"time"
)

// Breaker policy: failThreshold consecutive failures trip a closed breaker
// open; each re-trip from half-open doubles the open interval up to
// openForMax, so a persistently dead replica is probed ever more rarely; and
// probation consecutive half-open successes close it again.
// defaultOpenFor is the initial open interval when Config leaves
// BreakerOpenFor zero.
const (
	failThreshold  = 3
	defaultOpenFor = 2 * time.Second
	openForMax     = 30 * time.Second
	probation      = 2
)

// breakerState is the classic three-state circuit.
type breakerState int32

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	default:
		return "half-open"
	}
}

// Breaker is one replica's circuit breaker. Closed: requests flow, and
// failThreshold consecutive failures trip it open. Open: requests are
// refused until the cooldown elapses, then one trial request is admitted
// (half-open). Half-open: probation consecutive successes close it; any
// failure re-opens with a doubled (capped) cooldown.
//
// All methods are safe for concurrent use. The breaker observes both real
// request outcomes and active health probes — whichever fails first pulls the
// replica, whichever succeeds first starts rehabilitating it.
type Breaker struct {
	mu      sync.Mutex
	openFor time.Duration // initial cooldown, restored on full recovery

	state     breakerState
	fails     int           // consecutive failures while closed
	successes int           // consecutive successes while half-open
	openUntil time.Time     // when open admits the next trial
	cooldown  time.Duration // current open duration (doubles per re-trip)
	inTrial   bool          // a half-open trial request is in flight
	trips     int64
}

// NewBreaker builds a closed breaker whose first open interval is openFor
// (0 selects defaultOpenFor).
func NewBreaker(openFor time.Duration) *Breaker {
	if openFor <= 0 {
		openFor = defaultOpenFor
	}
	return &Breaker{openFor: openFor, cooldown: openFor}
}

// Allow reports whether a request may be sent to the replica right now. In
// half-open state only one trial request is admitted at a time; the caller
// must report its outcome via Success or Failure (which also ends the trial).
func (b *Breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return true
	case breakerOpen:
		if now.Before(b.openUntil) {
			return false
		}
		b.state = breakerHalfOpen
		b.successes = 0
		b.inTrial = true
		return true
	default: // half-open
		if b.inTrial {
			return false
		}
		b.inTrial = true
		return true
	}
}

// Success records a successful request or probe.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		b.fails = 0
	case breakerHalfOpen:
		b.inTrial = false
		b.successes++
		if b.successes >= probation {
			b.state = breakerClosed
			b.fails = 0
			b.cooldown = b.openFor // full recovery resets the backoff
		}
	case breakerOpen:
		// A probe succeeded while the cooldown still runs (e.g. the replica
		// restarted): move straight to half-open probation.
		b.state = breakerHalfOpen
		b.successes = 1
		b.inTrial = false
		if b.successes >= probation {
			b.state = breakerClosed
			b.fails = 0
			b.cooldown = b.openFor
		}
	}
}

// Failure records a failed request or probe.
func (b *Breaker) Failure(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		b.fails++
		if b.fails >= failThreshold {
			b.trip(now)
		}
	case breakerHalfOpen:
		b.inTrial = false
		b.cooldown *= 2
		if b.cooldown > openForMax {
			b.cooldown = openForMax
		}
		b.trip(now)
	case breakerOpen:
		// Already open: push the horizon out from this latest failure.
		b.openUntil = now.Add(b.cooldown)
	}
}

// trip moves to open; caller holds b.mu.
func (b *Breaker) trip(now time.Time) {
	b.state = breakerOpen
	b.openUntil = now.Add(b.cooldown)
	b.fails = 0
	b.trips++
}

// State reports the current state (resolving an elapsed open cooldown as
// open still — only Allow performs the open→half-open transition).
func (b *Breaker) State() breakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Trips reports how many times the breaker has opened.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}
