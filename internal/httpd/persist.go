package httpd

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"kelp/internal/durable"
	"kelp/internal/events"
)

// This file is the glue between the session server and internal/durable:
// WAL appends on the hot paths, periodic snapshots from the worker, and the
// boot-time recovery planner.
//
// Ordering discipline (the crash-safety contract):
//
//   - Structural commands (task admission, fs writes) log BEFORE they
//     apply, under sess.mu. Their outcome — including rejection — is a
//     deterministic function of (session state, request), so replay
//     reproduces successes and failures alike, with their events.
//   - Advances log AFTER the engine ticked, still under sess.mu and before
//     the job result is published, recording the clock actually reached.
//     A crash mid-advance therefore rolls back to the previous command
//     boundary; a logged advance replays to the same state bit-for-bit.
//   - Every append fsyncs before the response (or job result) is visible:
//     anything a client observed is durable.
//
// Both append flavors run under sess.mu, so WAL order equals apply order
// and a snapshot captured under sess.mu at sequence S corresponds exactly
// to the state produced by records [1, S].

// initWAL creates the session's log and writes the create record. Called
// before the session is inserted into the pool, so no command can race
// ahead of the create record. On failure the session runs ephemeral.
func (sess *Session) initWAL(s *Server, req createSessionRequest) {
	req.Name = sess.name // auto-generated names must survive recovery
	cfg, err := json.Marshal(req)
	if err != nil {
		s.persistErrors.Add(1)
		return
	}
	w, err := durable.CreateWAL(durable.WALPath(s.cfg.PersistDir, sess.name))
	if err != nil {
		s.persistErrors.Add(1)
		return
	}
	if err := w.Append(durable.Record{Seq: 1, Kind: durable.KindCreate, Config: cfg}); err != nil {
		w.Close()
		s.persistErrors.Add(1)
		return
	}
	sess.wal = w
	sess.persistOn = true
	sess.persistSeq.Store(1)
}

// appendLocked stamps the next sequence number and appends. Caller holds
// sess.mu. An append failure poisons persistence for this session — a gap
// in the log would replay a wrong history, so no further records are
// written and the session continues ephemeral (counted in persist_errors,
// visible as persist.failed in the session listing).
func (sess *Session) appendLocked(s *Server, rec durable.Record) {
	if sess.wal == nil || sess.persistFailed.Load() {
		return
	}
	rec.Seq = sess.wal.Seq() + 1
	if err := sess.wal.Append(rec); err != nil {
		sess.poisonPersist(s, "append failed: "+err.Error())
		return
	}
	sess.persistSeq.Store(rec.Seq)
	sess.sinceSnap++
}

func (sess *Session) logAdmit(s *Server, req admitRequest) {
	if sess.wal == nil {
		return
	}
	body, err := json.Marshal(req)
	if err != nil {
		sess.poisonPersist(s, "admit record encode failed: "+err.Error())
		return
	}
	sess.appendLocked(s, durable.Record{Kind: durable.KindAdmit, Admit: body})
}

// retirePersist removes the session's persist files. It MUST run before
// the session's name is released from the pool map: once the name is free
// a new session can create <name>.wal, and a removal after that would
// unlink the new incarnation's files — fsynced, client-acked commands
// would silently vanish at the next restart. persistMu makes the removal
// mutually exclusive with an in-flight snapshot write, so a racing rename
// can't resurrect <name>.snap after the files are gone. Idempotent.
func (sess *Session) retirePersist() {
	s := sess.srv
	if s.cfg.PersistDir == "" {
		return
	}
	sess.persistMu.Lock()
	defer sess.persistMu.Unlock()
	if sess.persistGone {
		return
	}
	sess.persistGone = true
	_ = durable.RemoveSession(s.cfg.PersistDir, sess.name)
}

// poisonPersist marks the session's persistence broken and quarantines its
// on-disk files. Leaving the stale WAL/snapshot in place would let the
// next boot silently resurrect the session from a prefix that drops every
// command acked after the failure, so the files move to <dir>/quarantine
// as evidence (with a server.recover event naming the reason) and the
// session continues ephemeral. Safe under sess.mu; idempotent.
func (sess *Session) poisonPersist(s *Server, reason string) {
	if !sess.persistFailed.CompareAndSwap(false, true) {
		return
	}
	s.persistErrors.Add(1)
	sess.persistMu.Lock()
	defer sess.persistMu.Unlock()
	if sess.persistGone {
		return
	}
	sess.persistGone = true
	for _, p := range []string{
		durable.WALPath(s.cfg.PersistDir, sess.name),
		durable.SnapPath(s.cfg.PersistDir, sess.name),
	} {
		if _, err := os.Stat(p); err != nil {
			continue
		}
		if _, err := durable.Quarantine(s.cfg.PersistDir, p); err != nil {
			// A stale file that resurrects is worse than lost evidence.
			_ = os.Remove(p)
			continue
		}
		s.quarantinedFiles.Add(1)
	}
	s.emit(events.ServerRecover, map[string]any{
		"session": sess.name, "file": sess.name + ".wal",
		"reason": "persistence poisoned: " + reason, "action": "quarantined",
	})
}

func (sess *Session) logFS(s *Server, method, rawPath string, body []byte) {
	if sess.wal == nil {
		return
	}
	sess.appendLocked(s, durable.Record{
		Kind: durable.KindFS, Method: method, Path: rawPath, Body: body,
	})
}

func (sess *Session) logAdvance(s *Server, end float64) {
	if sess.wal == nil {
		return
	}
	sess.appendLocked(s, durable.Record{
		Kind: durable.KindAdvance, End: math.Float64bits(end),
	})
}

// captureLocked builds a snapshot of the session at the current WAL
// sequence. Caller holds sess.mu.
func (sess *Session) captureLocked() *durable.SessionSnapshot {
	n := sess.agent.Node()
	return &durable.SessionSnapshot{
		Seq:      sess.wal.Seq(),
		SimNow:   n.Now(),
		Recorder: sess.agent.Events().State(),
		Node:     n.Snapshot(),
		Policy:   sess.agent.Applied().State(),
	}
}

// snapshotNow writes a snapshot if one is due: SnapshotEvery records have
// accumulated (or force, used by drain, with any accumulation at all). The
// capture runs under sess.mu; the encode/write/fsync/rename runs with the
// lock released, so queued jobs only ever wait for the capture.
func (sess *Session) snapshotNow(s *Server, force bool) {
	if s.cfg.SnapshotEvery < 0 || sess.persistFailed.Load() {
		return
	}
	sess.mu.Lock()
	if sess.wal == nil || sess.sinceSnap == 0 || (!force && sess.sinceSnap < s.cfg.SnapshotEvery) {
		sess.mu.Unlock()
		return
	}
	snap := sess.captureLocked()
	pending := sess.sinceSnap
	sess.mu.Unlock()
	// persistMu excludes retirePersist: without it a destroy/evict could
	// remove the files between capture and rename, and the rename would
	// then resurrect a .snap for a name that may already be reused.
	sess.persistMu.Lock()
	if sess.persistGone {
		sess.persistMu.Unlock()
		return
	}
	err := durable.WriteSnapshot(durable.SnapPath(s.cfg.PersistDir, sess.name), snap)
	sess.persistMu.Unlock()
	if err != nil {
		// The WAL is intact, so recovery stays exact (replay past the last
		// good snapshot) — a failed write does not poison persistence. The
		// capture didn't consume sinceSnap, so the next due check retries
		// immediately instead of waiting out a fresh SnapshotEvery window.
		s.persistErrors.Add(1)
		return
	}
	sess.mu.Lock()
	sess.sinceSnap -= pending // appends since the capture count toward the next snapshot
	sess.mu.Unlock()
	sess.snapSeq.Store(snap.Seq)
	sess.snapAtNS.Store(s.cfg.Clock().UnixNano())
	s.snapshotsTotal.Add(1)
	// Server recorder only: the session's own flight recorder must stay
	// byte-identical to an unpersisted run.
	s.emit(events.SessionPersist, map[string]any{
		"session": sess.name, "seq": snap.Seq, "sim_time": snap.SimNow,
	})
}

// recoverSessions rebuilds every surviving session from PersistDir. It
// never refuses to boot: damaged files are quarantined (or torn tails
// salvaged) with a server.recover event naming the reason, and recovery
// continues with the remaining sessions. Runs from New, before the server
// accepts any request.
func (s *Server) recoverSessions() error {
	dir := s.cfg.PersistDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	entries, dropped, orphans, err := durable.ScanDir(dir)
	if err != nil {
		return err
	}
	for _, p := range dropped {
		name, _ := durable.SessionName(p[:len(p)-len(".tmp")])
		s.recoverIncident(name, filepath.Base(p), "interrupted snapshot write", "dropped")
	}
	for _, p := range orphans {
		name, _ := durable.SessionName(p)
		s.quarantineFile(name, p, "snapshot without a log")
	}
	for _, e := range entries {
		// A restart with a lowered -max-sessions (or a persist dir grown
		// under a higher limit) must not boot over the configured bound.
		// ScanDir sorts by name, so the first MaxSessions names recover and
		// the rest are skipped with their files left in place — a later boot
		// with a larger pool can still pick them up, but their names are
		// unclaimed, so a same-name create overwrites the skipped history.
		s.mu.RLock()
		full := len(s.sessions) >= s.cfg.MaxSessions
		s.mu.RUnlock()
		if full {
			s.recoverIncident(e.Session, filepath.Base(e.WALPath),
				fmt.Sprintf("session pool full (%d)", s.cfg.MaxSessions), "skipped")
			continue
		}
		s.recoverSession(e)
	}
	return nil
}

// recoverIncident emits one server.recover event.
func (s *Server) recoverIncident(session, file, reason, action string) {
	s.emit(events.ServerRecover, map[string]any{
		"session": session, "file": file, "reason": reason, "action": action,
	})
}

// quarantineFile moves one damaged file into <dir>/quarantine and records
// the incident.
func (s *Server) quarantineFile(session, path, reason string) {
	if _, err := durable.Quarantine(s.cfg.PersistDir, path); err != nil {
		s.recoverIncident(session, filepath.Base(path), reason+" (quarantine failed: "+err.Error()+")", "dropped")
		return
	}
	s.quarantinedFiles.Add(1)
	s.recoverIncident(session, filepath.Base(path), reason, "quarantined")
}

// recoverSession rebuilds one session from its WAL (and snapshot, when one
// is present and valid). Failures quarantine the damaged files and drop
// the session; the server keeps booting.
func (s *Server) recoverSession(e durable.ScanEntry) {
	data, err := os.ReadFile(e.WALPath)
	if err != nil {
		s.recoverIncident(e.Session, filepath.Base(e.WALPath), "unreadable log: "+err.Error(), "dropped")
		return
	}
	rd, err := durable.DecodeWAL(data)
	if err != nil {
		// Interior damage: the log's tail cannot be trusted past the
		// corruption, so the session is unrecoverable. Quarantine both
		// files and keep booting.
		s.quarantineFile(e.Session, e.WALPath, "corrupt log: "+err.Error())
		if e.SnapPath != "" {
			s.quarantineFile(e.Session, e.SnapPath, "snapshot of a corrupt log")
		}
		return
	}
	if rd.Torn() {
		// A crash mid-append: salvage the intact prefix, preserve the torn
		// fragment as evidence, truncate when the log is reopened below.
		frag := data[rd.TornAt:]
		if _, qerr := durable.QuarantineBytes(s.cfg.PersistDir, e.Session+".wal.torn", frag); qerr == nil {
			s.quarantinedFiles.Add(1)
		}
		s.recoverIncident(e.Session, filepath.Base(e.WALPath),
			fmt.Sprintf("torn log tail (%d bytes)", len(frag)), "salvaged")
	}
	recs := rd.Records
	if len(recs) == 0 || recs[0].Kind != durable.KindCreate {
		s.quarantineFile(e.Session, e.WALPath, "log has no create record")
		if e.SnapPath != "" {
			s.quarantineFile(e.Session, e.SnapPath, "snapshot of an unusable log")
		}
		return
	}
	var req createSessionRequest
	if err := json.Unmarshal(recs[0].Config, &req); err != nil || req.Name != e.Session {
		s.quarantineFile(e.Session, e.WALPath, "unusable create record")
		if e.SnapPath != "" {
			s.quarantineFile(e.Session, e.SnapPath, "snapshot of an unusable log")
		}
		return
	}
	lastSeq := recs[len(recs)-1].Seq

	var snap *durable.SessionSnapshot
	if e.SnapPath != "" {
		sn, err := durable.ReadSnapshot(e.SnapPath)
		switch {
		case err != nil:
			s.quarantineFile(e.Session, e.SnapPath, "corrupt snapshot: "+err.Error())
		case sn.Seq > lastSeq:
			// The snapshot outruns the surviving log — restoring it would
			// desynchronize state from the command stream.
			s.quarantineFile(e.Session, e.SnapPath, "snapshot ahead of the log")
		default:
			snap = sn
		}
	}

	mode := "snapshot"
	sess, replayed, err := (*Session)(nil), 0, error(nil)
	if snap != nil {
		sess, replayed, err = s.rebuildSession(req, e.Session, recs, snap)
		if err != nil {
			s.quarantineFile(e.Session, e.SnapPath, "snapshot restore failed: "+err.Error())
			snap = nil
		}
	}
	if sess == nil {
		mode = "replay"
		sess, replayed, err = s.rebuildSession(req, e.Session, recs, nil)
		if err != nil {
			s.quarantineFile(e.Session, e.WALPath, "replay failed: "+err.Error())
			return
		}
	}

	trunc := int64(-1)
	if rd.Torn() {
		trunc = rd.TornAt
	}
	w, err := durable.OpenWAL(e.WALPath, trunc, lastSeq)
	if err != nil {
		// Recovered in memory but can't keep logging: run ephemeral. The
		// on-disk prefix goes stale the moment the next command is acked,
		// so poison quarantines it rather than letting a later boot
		// resurrect it as healthy.
		sess.poisonPersist(s, "log reopen failed: "+err.Error())
	} else {
		sess.wal = w
	}
	sess.persistOn = true
	sess.persistSeq.Store(lastSeq)
	if snap != nil {
		sess.snapSeq.Store(snap.Seq)
		sess.snapAtNS.Store(s.cfg.Clock().UnixNano())
	}
	sess.recoveredMode = mode
	sess.recoveredReplay = replayed

	s.mu.Lock()
	s.sessions[e.Session] = sess
	s.mu.Unlock()
	s.sessionsLive.Add(1)
	s.recoveredSessions.Add(1)
	s.replayedRecords.Add(int64(replayed))
	s.emit(events.SessionRestore, map[string]any{
		"session": e.Session, "mode": mode, "seq": lastSeq,
		"replayed": replayed, "sim_time": sess.simNow(),
	})
}

// rebuildSession rebuilds a session from its command log. With a snapshot
// it restores snapshot + WAL tail: replay the structural records up to the
// snapshot's sequence (task and group registration is time-invariant, so
// advances are skipped), install the snapshot state over it, then replay
// the tail in full. With a nil snapshot it replays the full log from t=0;
// the simulation is deterministic and seeded, so this is exact, just
// slower. It returns the number of records applied.
func (s *Server) rebuildSession(req createSessionRequest, name string, recs []durable.Record, snap *durable.SessionSnapshot) (*Session, int, error) {
	if snap != nil && snap.Node == nil {
		return nil, 0, fmt.Errorf("httpd: snapshot has no node state")
	}
	sess, err := s.buildSession(req, name)
	if err != nil {
		return nil, 0, err
	}
	replayed := 0
	err = func() error {
		sess.mu.Lock()
		defer sess.mu.Unlock()
		bound := 1
		if snap != nil {
			// Seq is checked against the log's last record, so it is never
			// past the end; clamp defensively.
			bound = min(int(snap.Seq), len(recs))
		}
		for _, rec := range recs[1:bound] {
			if rec.Kind == durable.KindAdvance {
				continue
			}
			if err := sess.applyRecord(s, rec); err != nil {
				return err
			}
			replayed++
		}
		if snap != nil {
			if err := sess.agent.Node().Restore(snap.Node); err != nil {
				return err
			}
			if err := sess.agent.Applied().Restore(snap.Policy); err != nil {
				return err
			}
			// The recorder state overwrites the admission events the
			// structural replay just emitted at t=0 with the true history
			// up to the snapshot, preserving byte-identical /events output.
			if err := sess.agent.Events().Restore(snap.Recorder); err != nil {
				return err
			}
		}
		for _, rec := range recs[bound:] {
			if err := sess.applyRecord(s, rec); err != nil {
				return err
			}
			replayed++
		}
		sess.storeNow()
		sess.syncDegraded(s)
		return nil
	}()
	if err != nil {
		sess.abandon(s)
		return nil, 0, err
	}
	return sess, replayed, nil
}

// applyRecord replays one logged command. Caller holds sess.mu. Admissions
// and fs writes go through the same apply functions the live handlers use;
// an advance runs the engine to the recorded end time, which is
// byte-identical to the original chunked execution.
func (sess *Session) applyRecord(s *Server, rec durable.Record) error {
	switch rec.Kind {
	case durable.KindCreate:
		return nil // consumed by buildSession
	case durable.KindAdmit:
		var req admitRequest
		if err := json.Unmarshal(rec.Admit, &req); err != nil {
			return fmt.Errorf("httpd: admit record %d: %w", rec.Seq, err)
		}
		sess.applyAdmit(s, req) // failures replay as failures, with their events
		return nil
	case durable.KindFS:
		sess.applyFS(rec.Method, rec.Path, rec.Body)
		return nil
	case durable.KindAdvance:
		end := math.Float64frombits(rec.End)
		if math.IsNaN(end) || math.IsInf(end, 0) {
			return fmt.Errorf("httpd: advance record %d: end %v", rec.Seq, end)
		}
		sess.agent.Node().Engine().RunUntil(end)
		return nil
	}
	return fmt.Errorf("httpd: record %d: unknown kind %q", rec.Seq, rec.Kind)
}

// abandon tears down a half-recovered session that never entered the pool:
// stop the worker and release any degraded-gauge contribution the replay
// made. No events, no counters — the session never existed publicly.
func (sess *Session) abandon(s *Server) {
	sess.stopped.Store(true)
	sess.cancel.Store(true)
	close(sess.quit)
	<-sess.dead
	sess.mu.Lock()
	if sess.degraded.CompareAndSwap(true, false) {
		s.degradedSessions.Add(-1)
	}
	sess.mu.Unlock()
}
