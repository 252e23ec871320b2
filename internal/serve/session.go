package serve

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// Session lifecycle defaults (see Config.MaxSessions / SessionTTL /
// SessionIdle).
const (
	DefaultMaxSessions = 64
	DefaultSessionTTL  = 15 * time.Minute
	DefaultSessionIdle = 2 * time.Minute
)

// sessionChunkSteps is how many integration steps an /advance computes
// between NDJSON flushes and context checks: the streaming granularity, and
// the bound on how long a dropped client keeps its session's integrator
// running.
const sessionChunkSteps = 64

// ErrSessionLimit is returned when creating a session would exceed the
// configured bound. Sessions hold live integrator state, so an unbounded
// manager would let idle clients grow memory without limit.
var ErrSessionLimit = errors.New("serve: session limit reached")

// errSessionGone marks lookups of closed, expired, or never-created
// sessions.
var errSessionGone = errors.New("serve: no such session")

// Session is one long-lived transient integration: a resumable Stepper plus
// the bookkeeping that lets many advances, state reads, and the eviction
// janitor observe it concurrently. The stepper itself is single-owner: an
// advance holds mu for its whole streaming run, concurrent advances are
// rejected (409) rather than queued, and every other reader uses the atomic
// counters instead of touching the stepper.
type Session struct {
	ID     string
	model  *Model
	dt     float64
	method sim.Method

	mu       sync.Mutex // owns stepper and emitted0
	stepper  *sim.Stepper
	emitted0 bool // the t = 0 row has been streamed

	created  time.Time
	deadline time.Time    // created + TTL: the hard lifetime bound
	lastUsed atomic.Int64 // unix nanos of the last create/advance/read
	closed   atomic.Bool  // evicted or deleted; in-flight advances stop at the next chunk

	steps    atomic.Int64 // integration steps completed
	advances atomic.Int64
	rows     atomic.Int64 // NDJSON rows streamed
}

// touch stamps the idle clock.
func (s *Session) touch(now time.Time) { s.lastUsed.Store(now.UnixNano()) }

// expired reports whether the session has outlived its hard TTL or its idle
// window.
func (s *Session) expired(now time.Time, idle time.Duration) bool {
	return now.After(s.deadline) || now.Sub(time.Unix(0, s.lastUsed.Load())) > idle
}

// SessionStats is the /healthz view of the session subsystem.
type SessionStats struct {
	Active  int   `json:"active"`
	Created int64 `json:"created"`
	// Expired counts TTL + idle evictions; Deleted counts explicit client
	// DELETEs; Denied counts creations rejected at the session bound.
	Expired int64 `json:"expired"`
	Deleted int64 `json:"deleted"`
	Denied  int64 `json:"denied"`
	// CanceledAdvances counts streaming advances cut short by client
	// disconnect (the integrator stopped within one chunk).
	CanceledAdvances int64 `json:"canceled_advances"`
	// StepsTotal is the total integration steps served across all sessions.
	StepsTotal int64 `json:"steps_total"`
	// Resumed counts sessions re-created from a persisted snapshot (failover
	// from another replica, or this one before a restart).
	Resumed int64 `json:"resumed"`
	// SnapshotsSaved / SnapshotErrors count session-state persistence through
	// the store (periodic per-advance snapshots plus drain snapshots).
	SnapshotsSaved int64   `json:"snapshots_saved"`
	SnapshotErrors int64   `json:"snapshot_errors"`
	MaxSessions    int     `json:"max_sessions"`
	TTLSeconds     float64 `json:"ttl_s"`
	IdleSeconds    float64 `json:"idle_s"`
}

// SessionManager owns the live sessions: bounded admission, TTL + idle
// eviction (a background janitor plus lazy checks on every lookup), and the
// counters /healthz reports.
type SessionManager struct {
	mu       sync.Mutex
	sessions map[string]*Session
	max      int
	ttl      time.Duration
	idle     time.Duration

	created, expired, deleted, denied atomic.Int64
	canceledAdvances                  atomic.Int64
	stepsTotal                        atomic.Int64
	resumed                           atomic.Int64
	snapSaved, snapErrors             atomic.Int64

	stop     chan struct{}
	stopOnce sync.Once
}

// NewSessionManager starts a manager bounded to max sessions with the given
// hard TTL and idle timeout (non-positive values select the defaults) and
// spawns its eviction janitor. Call Close to stop it.
func NewSessionManager(max int, ttl, idle time.Duration) *SessionManager {
	if max <= 0 {
		max = DefaultMaxSessions
	}
	if ttl <= 0 {
		ttl = DefaultSessionTTL
	}
	if idle <= 0 {
		idle = DefaultSessionIdle
	}
	sm := &SessionManager{
		sessions: make(map[string]*Session),
		max:      max,
		ttl:      ttl,
		idle:     idle,
		stop:     make(chan struct{}),
	}
	go sm.janitor()
	return sm
}

// janitor sweeps expired sessions on a period derived from the idle window,
// so an abandoned session's integrator state is reclaimed promptly even if
// no request ever touches the manager again.
func (sm *SessionManager) janitor() {
	tick := sm.idle / 4
	if tick < 50*time.Millisecond {
		tick = 50 * time.Millisecond
	}
	if tick > 10*time.Second {
		tick = 10 * time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-sm.stop:
			return
		case now := <-t.C:
			sm.Sweep(now)
		}
	}
}

// Close stops the janitor and closes every session. Safe to call twice.
func (sm *SessionManager) Close() {
	sm.stopOnce.Do(func() { close(sm.stop) })
	sm.mu.Lock()
	defer sm.mu.Unlock()
	for id, s := range sm.sessions {
		s.closed.Store(true)
		delete(sm.sessions, id)
	}
}

// Sweep evicts every expired session and returns how many it removed.
// In-flight advances on evicted sessions observe the closed flag and stop at
// their next chunk; Sweep never blocks on a session's mutex.
func (sm *SessionManager) Sweep(now time.Time) int {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	n := 0
	for id, s := range sm.sessions {
		if s.expired(now, sm.idle) {
			s.closed.Store(true)
			delete(sm.sessions, id)
			sm.expired.Add(1)
			n++
		}
	}
	return n
}

// newSessionID returns a 96-bit random hex id — unguessable, so one client
// cannot walk another's session by enumeration.
func newSessionID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a non-random id
		// would only weaken isolation, not correctness.
		return fmt.Sprintf("s%x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// CheckCapacity cheaply reports whether a create would currently be denied,
// evicting expired sessions first. Callers use it to refuse before paying
// for model resolution and stepper construction; Create re-checks
// authoritatively under its own lock.
func (sm *SessionManager) CheckCapacity() error {
	sm.Sweep(time.Now())
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if len(sm.sessions) >= sm.max {
		sm.denied.Add(1)
		return fmt.Errorf("%w (%d sessions)", ErrSessionLimit, sm.max)
	}
	return nil
}

// Create admits a new session over the given stepper, evicting expired
// sessions first and failing with ErrSessionLimit at the bound.
func (sm *SessionManager) Create(m *Model, st *sim.Stepper, dt float64, method sim.Method) (*Session, error) {
	now := time.Now()
	sm.Sweep(now)
	s := &Session{
		ID:       newSessionID(),
		model:    m,
		dt:       dt,
		method:   method,
		stepper:  st,
		created:  now,
		deadline: now.Add(sm.ttl),
	}
	s.touch(now)
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if len(sm.sessions) >= sm.max {
		sm.denied.Add(1)
		return nil, fmt.Errorf("%w (%d sessions)", ErrSessionLimit, sm.max)
	}
	sm.sessions[s.ID] = s
	sm.created.Add(1)
	return s, nil
}

// Adopt admits a fully-built session under its existing identity — the
// resume path, where the ID, creation time, and deadline were fixed when the
// session was first created (possibly on another replica). Fails with
// ErrSessionLimit at the bound and errSessionGone-style conflict if the ID is
// already live here.
func (sm *SessionManager) Adopt(s *Session) error {
	sm.Sweep(time.Now())
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if _, ok := sm.sessions[s.ID]; ok {
		return fmt.Errorf("serve: session %q is already live on this replica", s.ID)
	}
	if len(sm.sessions) >= sm.max {
		sm.denied.Add(1)
		return fmt.Errorf("%w (%d sessions)", ErrSessionLimit, sm.max)
	}
	sm.sessions[s.ID] = s
	sm.resumed.Add(1)
	return nil
}

// live snapshots the current session set — the drain hook iterates it
// without holding the manager's lock across per-session snapshot writes.
func (sm *SessionManager) live() []*Session {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	out := make([]*Session, 0, len(sm.sessions))
	for _, s := range sm.sessions {
		out = append(out, s)
	}
	return out
}

// Get resolves a live session, lazily evicting it if it expired between
// janitor sweeps.
func (sm *SessionManager) Get(id string) (*Session, error) {
	now := time.Now()
	sm.mu.Lock()
	s, ok := sm.sessions[id]
	if ok && s.expired(now, sm.idle) {
		s.closed.Store(true)
		delete(sm.sessions, id)
		sm.expired.Add(1)
		ok = false
	}
	sm.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", errSessionGone, id)
	}
	s.touch(now)
	return s, nil
}

// Delete closes and removes a session, reporting whether it existed.
func (sm *SessionManager) Delete(id string) bool {
	sm.mu.Lock()
	s, ok := sm.sessions[id]
	if ok {
		s.closed.Store(true)
		delete(sm.sessions, id)
	}
	sm.mu.Unlock()
	if ok {
		sm.deleted.Add(1)
	}
	return ok
}

// Stats snapshots the manager's counters.
func (sm *SessionManager) Stats() SessionStats {
	sm.mu.Lock()
	active := len(sm.sessions)
	sm.mu.Unlock()
	return SessionStats{
		Active:           active,
		Created:          sm.created.Load(),
		Expired:          sm.expired.Load(),
		Deleted:          sm.deleted.Load(),
		Denied:           sm.denied.Load(),
		CanceledAdvances: sm.canceledAdvances.Load(),
		StepsTotal:       sm.stepsTotal.Load(),
		Resumed:          sm.resumed.Load(),
		SnapshotsSaved:   sm.snapSaved.Load(),
		SnapshotErrors:   sm.snapErrors.Load(),
		MaxSessions:      sm.max,
		TTLSeconds:       sm.ttl.Seconds(),
		IdleSeconds:      sm.idle.Seconds(),
	}
}

// ---- HTTP layer ----

// sessionCreateRequest opens a streaming transient session on any servable
// model: by id, or by benchmark+scale (resolved through the same Δ-scale
// interpolation path as /eval and /sweep).
type sessionCreateRequest struct {
	Model string `json:"model"`
	ModelKey
	Dt float64 `json:"dt"`
	// Method selects "be" (default) or "trap" for non-modal fallback blocks.
	Method string `json:"method,omitempty"`
	// Resume, when set, re-creates the session with this id from its
	// persisted snapshot instead of opening a fresh one; every other field
	// except ResumeStep must be unset (the snapshot pins model, dt, and
	// method).
	Resume string `json:"resume,omitempty"`
	// ResumeStep, when positive, requires the resume to restore the state at
	// exactly this integration step. The store retains two snapshot
	// generations, so a router can rewind one advance — the case where the
	// previous owner completed an advance whose response never reached the
	// client. 0 resumes from the latest snapshot.
	ResumeStep int64 `json:"resume_step,omitempty"`
}

// sessionAdvanceRequest advances a session by a step count under a drive
// waveform. The waveform (and port mask) may change between advances — the
// integrator state carries over, nothing restarts from t = 0.
type sessionAdvanceRequest struct {
	Steps int        `json:"steps"`
	Input sourceSpec `json:"input"`
	Ports []int      `json:"ports,omitempty"`
}

// sessionInfo is the JSON state of a session, returned by POST /session and
// GET /session/{id}.
type sessionInfo struct {
	Session  string    `json:"session"`
	Model    string    `json:"model"`
	Dt       float64   `json:"dt"`
	Method   string    `json:"method"`
	Step     int64     `json:"step"`
	Time     float64   `json:"time"`
	Advances int64     `json:"advances"`
	Rows     int64     `json:"rows"`
	Created  time.Time `json:"created_at"`
	// ExpiresAt is the hard TTL deadline; IdleExpiresAt the rolling idle
	// deadline (whichever comes first evicts).
	ExpiresAt     time.Time `json:"expires_at"`
	IdleExpiresAt time.Time `json:"idle_expires_at"`
}

func (s *Server) sessionInfo(sess *Session) sessionInfo {
	steps := sess.steps.Load()
	return sessionInfo{
		Session:       sess.ID,
		Model:         sess.model.ID,
		Dt:            sess.dt,
		Method:        sess.method.String(),
		Step:          steps,
		Time:          float64(steps) * sess.dt,
		Advances:      sess.advances.Load(),
		Rows:          sess.rows.Load(),
		Created:       sess.created,
		ExpiresAt:     sess.deadline,
		IdleExpiresAt: time.Unix(0, sess.lastUsed.Load()).Add(s.sessions.idle),
	}
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req sessionCreateRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeErr(w, r, err)
		return
	}
	// Refuse at the bound before resolving the model: resolution may cost a
	// full reduction, and a denied request should be O(1), not O(reduce).
	if err := s.sessions.CheckCapacity(); err != nil {
		writeErr(w, r, overloaded(RetryAfterSessionLimit, err))
		return
	}
	if req.Resume != "" {
		if req.Model != "" || req.Benchmark != "" || req.Dt != 0 || req.Method != "" {
			writeErr(w, r, badRequest("resume takes no other fields: the snapshot pins model, dt, and method"))
			return
		}
		s.handleSessionResume(w, r, req.Resume, req.ResumeStep)
		return
	}
	if req.ResumeStep != 0 {
		writeErr(w, r, badRequest("resume_step requires resume"))
		return
	}
	m, _, err := s.resolveModel(req.Model, req.ModelKey, 0)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	noteModel(r, m)
	method, err := parseMethod(req.Method)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	if req.Dt <= 0 {
		writeErr(w, r, badRequest("dt must be positive, got %g", req.Dt))
		return
	}
	st, err := sim.NewStepper(m.Modal, sim.StepperOptions{Method: method, Dt: req.Dt})
	if err != nil {
		writeErr(w, r, err) // integrator pencil failure: server-side, 500
		return
	}
	sess, err := s.sessions.Create(m, st, req.Dt, method)
	if err != nil {
		if errors.Is(err, ErrSessionLimit) {
			err = overloaded(RetryAfterSessionLimit, err)
		}
		writeErr(w, r, err)
		return
	}
	writeJSON(w, r, s.sessionInfo(sess))
}

func (s *Server) lookupSession(id string) (*Session, error) {
	sess, err := s.sessions.Get(id)
	if err != nil {
		return nil, &httpError{code: http.StatusNotFound, err: err}
	}
	return sess, nil
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	sess, err := s.lookupSession(r.PathValue("id"))
	if err != nil {
		writeErr(w, r, err)
		return
	}
	noteModel(r, sess.model)
	writeJSON(w, r, s.sessionInfo(sess))
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.sessions.Delete(id) {
		writeErr(w, r, &httpError{code: http.StatusNotFound, err: fmt.Errorf("%w: %q", errSessionGone, id)})
		return
	}
	// An explicitly deleted session must not resurrect on another replica:
	// drop its persisted snapshot too (best-effort — a failed remove only
	// means the TTL check at resume time does the cleanup).
	if s.cfg.Store != nil {
		s.cfg.Store.DeleteSnapshot(id)
	}
	writeJSON(w, r, map[string]string{"deleted": id})
}

// handleSessionAdvance integrates the session forward and streams each
// computed row as an NDJSON line, flushing chunk by chunk. The very first
// advance of a session also emits the t = 0 row, so a session advanced in N
// chunks streams exactly the rows one /transient run of the same length
// returns. A dropped client cancels r.Context(), which stops the integrator
// at the next chunk boundary — the session itself stays live (at its
// pre-chunk position plus the completed chunks) and can be advanced again.
func (s *Server) handleSessionAdvance(w http.ResponseWriter, r *http.Request) {
	sess, err := s.lookupSession(r.PathValue("id"))
	if err != nil {
		writeErr(w, r, err)
		return
	}
	noteModel(r, sess.model)
	t0 := time.Now()
	defer func() { s.metrics.advance(t0) }()
	var req sessionAdvanceRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeErr(w, r, err)
		return
	}
	if req.Steps < 1 || req.Steps > maxSweepPoints {
		writeErr(w, r, badRequest("steps must be in 1..%d, got %d", maxSweepPoints, req.Steps))
		return
	}
	input, err := buildInput(&req.Input, req.Ports, sess.model.Ports)
	if err != nil {
		writeErr(w, r, err)
		return
	}
	// One advance at a time per session: a second concurrent advance would
	// interleave two drives on one integrator. Reject instead of queueing so
	// a stuck client cannot pile up blocked handlers.
	if !sess.mu.TryLock() {
		writeErr(w, r, &httpError{code: http.StatusConflict,
			err: fmt.Errorf("serve: session %s has an advance in flight", sess.ID)})
		return
	}
	defer sess.mu.Unlock()
	if sess.closed.Load() {
		writeErr(w, r, &httpError{code: http.StatusNotFound, err: fmt.Errorf("%w: %q", errSessionGone, sess.ID)})
		return
	}

	ctx := r.Context()
	w.Header().Set("Content-Type", "application/x-ndjson")
	fl, _ := w.(http.Flusher)
	flush := func() {
		if fl != nil {
			fl.Flush()
		}
	}
	// Guard each chunk's writes with the rolling stream deadline: a stalled
	// client — connected but not reading — fails the write within
	// streamWriteTimeout and frees this goroutine, rather than blocking in
	// Write forever (r.Context() fires on disconnect, not on a stall).
	rc := http.NewResponseController(w)
	armWriteDeadline := func() { armStreamDeadline(rc) }
	defer clearStreamDeadline(rc)
	armWriteDeadline()
	bp := getBuf()
	defer putBuf(bp)
	// writeRows streams rows as NDJSON lines in one Write. A failed write
	// normally means the client is gone (broken or stalled connection) —
	// account it like a context cancellation. An encoding failure (NaN/Inf
	// outputs from a diverging integrator) is not a disconnect: the rows
	// before the bad one go out, then the truncation marker, so the
	// still-connected client cannot mistake the partial stream for a
	// complete one. sess.rows counts only the rows written.
	writeRows := func(ts []float64, ys [][]float64) bool {
		b, n, err := appendLines((*bp)[:0], 0, len(ts), func(b []byte, i int) ([]byte, error) {
			return appendTransientRow(b, ts[i], ys[i])
		})
		*bp = b
		if _, werr := w.Write(b); werr != nil {
			s.sessions.canceledAdvances.Add(1)
			return false
		}
		sess.rows.Add(int64(n))
		if err != nil {
			armWriteDeadline()
			writeStreamError(w, "row encoding failed: "+err.Error())
			return false
		}
		return true
	}

	if !sess.emitted0 {
		y0, err := sess.stepper.Output(input)
		if err != nil {
			writeErr(w, r, err)
			return
		}
		if !writeRows([]float64{sess.stepper.Time()}, [][]float64{y0}) {
			return // client gone before the first row; emit t=0 on retry
		}
		sess.emitted0 = true
		flush()
	}

	sess.advances.Add(1)
	for remaining := req.Steps; remaining > 0; {
		// Touch before queueing, not just after completing: a chunk waiting
		// for a pool slot on a loaded server must not look idle to the
		// eviction janitor.
		sess.touch(time.Now())
		if ctx.Err() != nil {
			s.sessions.canceledAdvances.Add(1)
			return
		}
		if sess.closed.Load() {
			// Evicted (TTL) or deleted mid-advance: tell the still-connected
			// client its stream is truncated, not complete. Re-arm the write
			// deadline so the marker is not lost to one that expired while
			// the chunk waited.
			armWriteDeadline()
			writeStreamError(w, "session closed during advance")
			return
		}
		n := sessionChunkSteps
		if n > remaining {
			n = remaining
		}
		// Each chunk occupies one evaluation-pool slot, so total integration
		// concurrency across sessions, sweeps, and transients stays bounded
		// by the worker count. Sessions share no integration state, so
		// chunks of different sessions spread over the pool's workers.
		var chunk *sim.Result
		err := s.eng.MapCtx(ctx, 1, func(int) error {
			var aerr error
			chunk, aerr = sess.stepper.Advance(n, input)
			return aerr
		})
		if err != nil {
			if ctx.Err() != nil {
				s.sessions.canceledAdvances.Add(1)
				return
			}
			// Mid-stream failure: the status line is long gone, so surface
			// the error as a final NDJSON line (under a fresh write deadline).
			armWriteDeadline()
			writeStreamError(w, err.Error())
			return
		}
		sess.steps.Add(int64(n))
		s.sessions.stepsTotal.Add(int64(n))
		armWriteDeadline()
		if !writeRows(chunk.T, chunk.Y) {
			return
		}
		flush()
		remaining -= n
		sess.touch(time.Now())
	}
	// The advance completed: persist the integrator state if the periodic
	// snapshot policy says so (sess.mu is still held here, so the stepper is
	// quiescent and the snapshot is exactly the state the client just saw).
	s.maybeSnapshotSession(sess)
}

// buildInput turns a waveform spec plus an optional port mask into a
// sim.Input, validating ports against the model.
func buildInput(spec *sourceSpec, portList []int, ports int) (sim.Input, error) {
	src, err := spec.source()
	if err != nil {
		return nil, badRequest("%v", err)
	}
	if len(portList) == 0 {
		return sim.UniformInput(src), nil
	}
	for _, p := range portList {
		if p < 0 || p >= ports {
			return nil, badRequest("port %d out of range %d", p, ports)
		}
	}
	masked := append([]int(nil), portList...)
	return func(t float64, u []float64) {
		v := src.At(t)
		for i := range u {
			u[i] = 0
		}
		for _, p := range masked {
			u[p] = v
		}
	}, nil
}

// parseMethod maps the wire method name onto the integration rule.
func parseMethod(name string) (sim.Method, error) {
	switch strings.ToLower(name) {
	case "", "be":
		return sim.BackwardEuler, nil
	case "trap":
		return sim.Trapezoidal, nil
	}
	return 0, badRequest("unknown method %q (want be or trap)", name)
}
