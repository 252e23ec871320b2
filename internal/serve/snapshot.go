// Session snapshot + resume: what makes a replica's transient sessions
// survivable.
//
// A session's only unrecoverable state is its integrator position — the ROM
// itself is already in the content-addressed store. Persisting a
// sim.StepperState frame through the same store after every K completed
// advances (Config.SnapshotEvery) and on shutdown drain means any replica
// sharing the store directory can re-create the session under its original
// identity and continue the integration bit-exactly. With SnapshotEvery=1 the
// persisted state always matches the last advance the client saw complete, so
// a router can fail a session over to another replica with no client-visible
// position loss.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/sim"
	"repro/internal/store"
)

// snapshotSession persists sess's integrator state through the store. The
// caller must hold sess.mu, so the stepper is quiescent and the snapshot is
// exactly the state the last completed advance left behind.
func (s *Server) snapshotSession(sess *Session) error {
	if s.cfg.Store == nil {
		return errors.New("serve: no persistent store attached")
	}
	snap := sess.stepper.Snapshot()
	payload, err := snap.MarshalBinary()
	if err != nil {
		return err
	}
	keyJSON, err := json.Marshal(sess.model.Key)
	if err != nil {
		return err
	}
	return s.cfg.Store.PutSnapshot(store.SnapshotMeta{
		SessionID: sess.ID,
		ModelID:   sess.model.ID,
		ModelKey:  keyJSON,
		Dt:        sess.dt,
		Method:    sess.method.String(),
		Step:      int64(snap.Step),
		Emitted0:  sess.emitted0,
		Advances:  sess.advances.Load(),
		Deadline:  sess.deadline,
		Created:   sess.created,
		Saved:     time.Now().UTC(),
	}, payload)
}

// maybeSnapshotSession applies the periodic snapshot policy after a completed
// advance (sess.mu held): every SnapshotEvery-th advance persists the state.
// Failures are counted, logged, and otherwise ignored — a broken disk must
// not fail the advance that already streamed successfully.
func (s *Server) maybeSnapshotSession(sess *Session) {
	every := s.cfg.SnapshotEvery
	if every <= 0 || s.cfg.Store == nil {
		return
	}
	if sess.advances.Load()%int64(every) != 0 {
		return
	}
	if err := s.snapshotSession(sess); err != nil {
		s.sessions.snapErrors.Add(1)
		s.log.Warn("session snapshot failed", "session", sess.ID, "err", err)
		return
	}
	s.sessions.snapSaved.Add(1)
}

// SnapshotSessions persists every live session's state — the drain hook: the
// daemon calls it after the listener stops (no advance can race) so each
// session can resume on a surviving replica. Returns how many sessions were
// persisted. Blocking Lock is correct here: an in-flight advance holds the
// lock only until its streaming run ends, and during a drain the HTTP server
// has already stopped accepting the next one.
func (s *Server) SnapshotSessions() int {
	if s.cfg.Store == nil {
		return 0
	}
	n := 0
	for _, sess := range s.sessions.live() {
		sess.mu.Lock()
		if sess.closed.Load() {
			sess.mu.Unlock()
			continue
		}
		err := s.snapshotSession(sess)
		sess.mu.Unlock()
		if err != nil {
			s.sessions.snapErrors.Add(1)
			s.log.Warn("drain snapshot failed", "session", sess.ID, "err", err)
			continue
		}
		s.sessions.snapSaved.Add(1)
		n++
	}
	return n
}

// handleSessionResume re-creates a session from its persisted snapshot under
// its original identity (id, creation time, TTL deadline — a resume must not
// extend the session's promised lifetime). step > 0 demands the state at
// exactly that integration step (either retained generation); a session
// whose snapshots exist but don't include that step answers 409, telling a
// router the session is alive but not replayable from there. Other unusable
// snapshots — missing, expired, corrupt payload, vanished model,
// incompatible state — all surface as 404: the client's recovery is the same
// in every case, open a fresh session. The session-capacity check already
// ran in handleSessionCreate.
func (s *Server) handleSessionResume(w http.ResponseWriter, r *http.Request, id string, step int64) {
	if s.cfg.Store == nil {
		writeErr(w, r, badRequest("session resume requires a persistent store"))
		return
	}
	notFound := func(format string, args ...any) {
		writeErr(w, r, &httpError{code: http.StatusNotFound, err: fmt.Errorf(format, args...)})
	}
	var meta store.SnapshotMeta
	var payload []byte
	var err error
	if step > 0 {
		meta, payload, err = s.cfg.Store.GetSnapshotAt(id, step)
		if errors.Is(err, store.ErrNoSnapshotAtStep) {
			writeErr(w, r, &httpError{code: http.StatusConflict, err: err})
			return
		}
	} else {
		meta, payload, err = s.cfg.Store.GetSnapshot(id)
	}
	if err != nil {
		notFound("no resumable snapshot for session %q: %v", id, err)
		return
	}
	now := time.Now()
	if now.After(meta.Deadline) {
		s.cfg.Store.DeleteSnapshot(id)
		notFound("session %q expired at %s", id, meta.Deadline.Format(time.RFC3339))
		return
	}
	state, err := sim.UnmarshalStepperState(payload)
	if err != nil {
		notFound("snapshot for session %q is unusable: %v", id, err)
		return
	}
	key, ok := keyFromMeta(meta.ModelKey, meta.ModelID)
	if !ok {
		notFound("snapshot for session %q names an invalid model key", id)
		return
	}
	m, _, err := s.repo.Get(key)
	switch {
	case errors.Is(err, ErrRepositoryFull):
		writeErr(w, r, overloaded(RetryAfterRepoFull, err))
		return
	case err != nil:
		writeErr(w, r, err)
		return
	}
	noteModel(r, m)
	method, err := parseMethod(meta.Method)
	if err != nil {
		notFound("snapshot for session %q has unknown method %q", id, meta.Method)
		return
	}
	st, err := sim.NewStepper(m.Modal, sim.StepperOptions{Method: method, Dt: meta.Dt})
	if err != nil {
		writeErr(w, r, err) // integrator pencil failure: server-side, 500
		return
	}
	if err := st.Restore(state); err != nil {
		notFound("snapshot for session %q does not fit model %s: %v", id, m.ID, err)
		return
	}
	sess := &Session{
		ID:       meta.SessionID,
		model:    m,
		dt:       meta.Dt,
		method:   method,
		stepper:  st,
		emitted0: meta.Emitted0,
		created:  meta.Created,
		deadline: meta.Deadline,
	}
	sess.steps.Store(meta.Step)
	sess.advances.Store(meta.Advances)
	sess.touch(now)
	if err := s.sessions.Adopt(sess); err != nil {
		if errors.Is(err, ErrSessionLimit) {
			writeErr(w, r, overloaded(RetryAfterSessionLimit, err))
		} else {
			writeErr(w, r, &httpError{code: http.StatusConflict, err: err})
		}
		return
	}
	writeJSON(w, r, s.sessionInfo(sess))
}
