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
// now: the last health probe (if any has run) found it ready, and the breaker
// would admit a request. It only reads: the breaker's half-open trial slot is
// taken by attempt, when a request is actually sent. An unprobed replica is
// usable — at cold start the router routes optimistically and lets outcomes
// train the breaker rather than failing everything until the first probe
// tick.
func (rep *replica) usable(now time.Time) bool {
	rep.mu.Lock()
	probedOK := !rep.everProbed || rep.probedOK
	rep.mu.Unlock()
	// The prober keeps feeding the breaker while the replica is down, so
	// breaker state and probe verdict converge; the explicit check makes the
	// router stop routing after ONE failed probe instead of waiting for the
	// breaker's failure threshold.
	return probedOK && rep.breaker.Admits(now)
}

// setProbe records a probe verdict, trains the breaker with it, and reports
// whether the previous verdict was OK (true before any probe has run).
func (rep *replica) setProbe(ok bool, reason string, now time.Time) (wasOK bool) {
	rep.mu.Lock()
	wasOK = !rep.everProbed || rep.probedOK
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
	return wasOK
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
	rep.mu.Unlock()
	st.Usable = rep.usable(now)
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
	var resp *http.Response
	if err == nil {
		resp, err = p.client.Do(req)
	}
	now := time.Now()
	ok, msg, key, reason := true, "", "", ""
	if err != nil {
		ok, msg, key, reason = false, "replica probe failed", "err", err.Error()
	} else {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			ok, msg, key, reason = false, "replica not ready", "status", resp.Status
		}
	}
	wasOK := rep.setProbe(ok, reason, now)
	switch {
	case !ok && wasOK:
		p.log.Warn(msg, "replica", rep.addr, key, reason)
	case ok && !wasOK:
		p.log.Info("replica healthy", "replica", rep.addr)
	}
	p.notify(rep, ok)
}

func (p *prober) notify(rep *replica, ok bool) {
	if p.onProbe != nil {
		p.onProbe(rep, ok)
	}
}

// close stops the probe loops and waits for them.
func (p *prober) close() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.done.Wait()
}
