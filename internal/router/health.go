package router

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Prober defaults; see Config.
const (
	DefaultProbeInterval = 1 * time.Second
	defaultProbeTimeout  = 2 * time.Second
)

// replica is the router's view of one backend: its breaker plus the last
// probe verdict.
type replica struct {
	addr    string // base URL, e.g. http://127.0.0.1:8081
	breaker *Breaker

	mu         sync.Mutex
	probedOK   bool      // last /healthz answered 200
	probeErr   string    // why not, for /healthz reporting
	lastProbe  time.Time // when
	everProbed bool

	inflight atomic.Int64 // requests currently proxied to this replica
}

// usable reports whether the router may route a request to this replica right
// now: the breaker admits it, and the last health probe (if any has run)
// found it ready. An unprobed replica is usable — at cold start the router
// routes optimistically and lets outcomes train the breaker rather than
// failing everything until the first probe tick.
func (rep *replica) usable(now time.Time) bool {
	rep.mu.Lock()
	probedOK, everProbed := rep.probedOK, rep.everProbed
	rep.mu.Unlock()
	if everProbed && !probedOK {
		// The prober keeps feeding the breaker while the replica is down, so
		// breaker state and probe verdict converge; the explicit check makes
		// the router stop routing after ONE failed probe instead of waiting
		// for the breaker's failure threshold.
		return false
	}
	return rep.breaker.Allow(now)
}

// setProbe records a probe verdict and trains the breaker with it.
func (rep *replica) setProbe(ok bool, reason string, now time.Time) {
	rep.mu.Lock()
	rep.probedOK = ok
	rep.probeErr = reason
	rep.lastProbe = now
	rep.everProbed = true
	rep.mu.Unlock()
	if ok {
		rep.breaker.Success()
	} else {
		rep.breaker.Failure(now)
	}
}

// probeState is the /healthz view of one replica.
type probeState struct {
	Addr      string    `json:"addr"`
	Usable    bool      `json:"usable"`
	Breaker   string    `json:"breaker"`
	ProbedOK  bool      `json:"probed_ok"`
	ProbeErr  string    `json:"probe_err,omitempty"`
	LastProbe time.Time `json:"last_probe,omitempty"`
	Inflight  int64     `json:"inflight"`
}

func (rep *replica) state(now time.Time) probeState {
	rep.mu.Lock()
	st := probeState{
		Addr:      rep.addr,
		Breaker:   rep.breaker.State().String(),
		ProbedOK:  rep.probedOK,
		ProbeErr:  rep.probeErr,
		LastProbe: rep.lastProbe,
		Inflight:  rep.inflight.Load(),
	}
	probedOK, everProbed := rep.probedOK, rep.everProbed
	rep.mu.Unlock()
	st.Usable = (!everProbed || probedOK) && rep.breaker.State() != breakerOpen
	_ = now
	return st
}

// prober actively polls every replica's /healthz on a fixed interval,
// feeding verdicts into the breakers. Active probing is what rehabilitates a
// recovered replica without risking client traffic: the breaker's half-open
// probation is satisfied by probe successes, so by the time real requests
// return, the replica has already proven itself.
type prober struct {
	client   *http.Client
	replicas []*replica
	interval time.Duration
	log      *slog.Logger
	onProbe  func(rep *replica, ok bool) // metrics hook; may be nil

	stop     chan struct{}
	stopOnce sync.Once
	done     sync.WaitGroup
}

func newProber(replicas []*replica, interval, timeout time.Duration, log *slog.Logger, onProbe func(*replica, bool)) *prober {
	if interval <= 0 {
		interval = DefaultProbeInterval
	}
	if timeout <= 0 {
		timeout = defaultProbeTimeout
	}
	return &prober{
		client:   &http.Client{Timeout: timeout},
		replicas: replicas,
		interval: interval,
		log:      log,
		onProbe:  onProbe,
		stop:     make(chan struct{}),
	}
}

// run probes until Close; one goroutine per replica so a hung replica's
// probe timeout never delays the others' cadence.
func (p *prober) run() {
	for _, rep := range p.replicas {
		rep := rep
		p.done.Add(1)
		go func() {
			defer p.done.Done()
			t := time.NewTicker(p.interval)
			defer t.Stop()
			p.probe(rep) // immediately, not an interval from now
			for {
				select {
				case <-p.stop:
					return
				case <-t.C:
					p.probe(rep)
				}
			}
		}()
	}
}

func (p *prober) probe(rep *replica) {
	//pgmor:detach the prober owns its own schedule; probes are not tied to any client request
	ctx, cancel := context.WithTimeout(context.Background(), p.client.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.addr+"/healthz", nil)
	if err != nil {
		rep.setProbe(false, err.Error(), time.Now())
		return
	}
	resp, err := p.client.Do(req)
	now := time.Now()
	if err != nil {
		wasOK := rep.stateOK()
		rep.setProbe(false, err.Error(), now)
		if wasOK {
			p.log.Warn("replica probe failed", "replica", rep.addr, "err", err)
		}
		p.notify(rep, false)
		return
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		wasOK := rep.stateOK()
		rep.setProbe(false, resp.Status, now)
		if wasOK {
			p.log.Warn("replica not ready", "replica", rep.addr, "status", resp.Status)
		}
		p.notify(rep, false)
		return
	}
	if !rep.stateOK() {
		p.log.Info("replica healthy", "replica", rep.addr)
	}
	rep.setProbe(true, "", now)
	p.notify(rep, true)
}

func (p *prober) notify(rep *replica, ok bool) {
	if p.onProbe != nil {
		p.onProbe(rep, ok)
	}
}

// stateOK reads the last probe verdict (true before any probe has run).
func (rep *replica) stateOK() bool {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	return !rep.everProbed || rep.probedOK
}

// close stops the probe loops and waits for them.
func (p *prober) close() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.done.Wait()
}
