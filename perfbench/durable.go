package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"kelp/internal/durable"
	"kelp/internal/httpd"
)

// The durability phase ends every serve run. One round of the durable
// script runs against a kelpd with a persist directory, so every
// acknowledged command is fsynced; then the server is closed and restarted
// on that directory restarts times, and every restart is timed and checked.
// None of it is an end-to-end metric: the load follows the host's fsync
// latency and a restart lasts tens of milliseconds, and both drift between
// runs by more than any bound the benchmark may declare. The traced run
// reports them as per-layer numbers.

// restarts is how many times the persisted server is restarted;
// durable.recover_s is the median.
const restarts = 9

// durablePlan runs 20 ms advances. A quarter of the sessions, chosen by
// the seed, get a fault spec with a seeded injector; such sessions never
// snapshot, so their recovery replays the whole log and grows with age.
func durablePlan(seed int64) plan {
	p := plan{units: 40, ms: 20, faults: map[int]string{}}
	rng := rand.New(rand.NewSource(seed))
	for _, i := range rng.Perm(sessionsPerRound)[:sessionsPerRound/4] {
		p.faults[i] = fmt.Sprintf("seed=%d,drop=0.2,actstick=0.1", rng.Uint32())
	}
	return p
}

// durability runs the phase and keeps what the traced run reports.
type durability struct {
	plan   plan
	rep    *report
	traced bool

	load          passStat
	before, after healthz // of the loaded server after Close, and of the last restart
	// Probe results, filled when traced.
	walAppendMS, snapWriteMS     []float64
	walBytesPerRecord, snapBytes float64
	recoverRead                  float64
	walRecords                   int64
	recovers                     []float64 // seconds per restart
}

// run executes the phase.
func (d *durability) run() error {
	parent := filepath.Join(buildDir, "persist")
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(parent, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := httpd.Config{SessionTTL: -1, PersistDir: dir}
	l, err := start(cfg, nil)
	if err != nil {
		return err
	}
	d.plan.load(l.do, d.rep, &d.load)
	l.stop()
	pre := map[string][]byte{}
	local := inProcess(l.srv.Handler())
	for i := 0; i < sessionsPerRound; i++ {
		_, pre[sessionName(i)], _ = local("GET", "/sessions/"+sessionName(i)+"/metrics", "")
	}
	l.srv.Close()
	if d.before, err = readHealthz(l.srv.Handler()); err != nil {
		return err
	}
	if d.traced {
		if err := d.timeRecoverRead(dir); err != nil {
			return err
		}
	}

	for i := 0; i < restarts; i++ {
		liveHeapMB()
		t0 := time.Now()
		srv, err := httpd.New(cfg)
		took := time.Since(t0).Seconds()
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		d.recovers = append(d.recovers, took)
		d.after, err = readHealthz(srv.Handler())
		if err == nil {
			d.check(pre, inProcess(srv.Handler()))
			if d.traced && i == restarts-1 {
				err = d.probe(dir)
			}
		}
		srv.Close()
		if err != nil {
			return err
		}
	}
	d.rep.note("durability: %d sessions persisted, %d restarts checked", sessionsPerRound, restarts)
	return nil
}

// check requires every session to come back and answer /metrics
// byte-identically to its pre-restart scrape, with no persist errors and
// nothing quarantined.
func (d *durability) check(pre map[string][]byte, do doer) {
	if got := d.after.Persist.RecoveredSessions; got != sessionsPerRound {
		d.rep.fail("recovered %d sessions, created %d", got, sessionsPerRound)
	}
	if n := d.before.Persist.PersistErrors + d.after.Persist.PersistErrors; n != 0 {
		d.rep.fail("%d persist errors", n)
	}
	if n := d.after.Persist.QuarantinedFiles; n != 0 {
		d.rep.fail("%d quarantined files", n)
	}
	for name, want := range pre {
		st, got, _ := do("GET", "/sessions/"+name+"/metrics", "")
		if st != http.StatusOK || string(got) != string(want) {
			d.rep.fail("%s /metrics after recovery differs from before the restart", name)
			return
		}
	}
}

// layers reports the durable layer's numbers.
func (d *durability) layers() {
	l := d.rep.layers
	l["durable.advance_p50_ms"] = quantile(d.load.lat, 0.5) * 1e3
	l["durable.req_per_s"] = float64(d.load.ops) / d.load.wall
	l["durable.wal_append_ms_p50"] = median(d.walAppendMS)
	l["durable.wal_append_ms_p99"] = quantile(d.walAppendMS, 0.99)
	l["durable.wal_bytes_per_record"] = d.walBytesPerRecord
	l["durable.snapshot_write_ms"] = median(d.snapWriteMS)
	l["durable.snapshot_bytes"] = d.snapBytes
	l["durable.snapshots"] = float64(d.before.Persist.Snapshots)
	l["durable.recover_s"] = median(d.recovers)
	l["durable.recover_read_s"] = d.recoverRead
	l["durable.replayed_records"] = float64(d.after.Persist.ReplayedRecords)
	l["durable.recovered_sessions"] = float64(d.after.Persist.RecoveredSessions)
	l["durable.replay_share"] = float64(d.after.Persist.ReplayedRecords) / float64(max(d.walRecords, 1))
	l["durable.persist_errors"] = float64(d.before.Persist.PersistErrors + d.after.Persist.PersistErrors)
}

// timeRecoverRead times reading back every WAL and snapshot in a persist
// directory, the I/O half of recovery, and counts the WAL records on disk.
func (d *durability) timeRecoverRead(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	t0 := time.Now()
	var records int64
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		switch filepath.Ext(e.Name()) {
		case ".wal":
			r, err := durable.ReadWAL(path)
			if err != nil {
				return fmt.Errorf("read %s: %w", path, err)
			}
			records += int64(len(r.Records))
		case ".snap":
			if _, err := durable.ReadSnapshot(path); err != nil {
				return fmt.Errorf("read %s: %w", path, err)
			}
		}
	}
	d.recoverRead = time.Since(t0).Seconds()
	d.walRecords = records
	return nil
}

// walProbeAppends is how many records the WAL probe appends.
const walProbeAppends = 200

// probe times the durable layer's writes on the persist filesystem
// with the workload's own data: the records of a recovered session's WAL
// appended to a fresh log, and a snapshot read back from the directory
// written out again.
func (d *durability) probe(dir string) error {
	probe := filepath.Join(dir, "probe")
	if err := os.MkdirAll(probe, 0o755); err != nil {
		return err
	}
	// Fault-injected sessions never snapshot; probe the first other one.
	var walPath, snapPath string
	for i := 0; i < sessionsPerRound && snapPath == ""; i++ {
		if _, faulted := d.plan.faults[i]; faulted {
			continue
		}
		walPath = durable.WALPath(dir, sessionName(i))
		snapPath = durable.SnapPath(dir, sessionName(i))
	}
	read, err := durable.ReadWAL(walPath)
	if err != nil {
		return err
	}
	if len(read.Records) == 0 {
		return fmt.Errorf("%s has no records", walPath)
	}
	walProbe := filepath.Join(probe, "probe.wal")
	w, err := durable.CreateWAL(walProbe)
	if err != nil {
		return err
	}
	empty, err := os.Stat(walProbe)
	if err != nil {
		w.Close()
		return err
	}
	for i := 0; i < walProbeAppends; i++ {
		rec := read.Records[i%len(read.Records)]
		rec.Seq = uint64(i + 1)
		t0 := time.Now()
		err := w.Append(rec)
		d.walAppendMS = append(d.walAppendMS, float64(time.Since(t0))/1e6)
		if err != nil {
			w.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(walProbe)
	if err != nil {
		return err
	}
	d.walBytesPerRecord = float64(fi.Size()-empty.Size()) / walProbeAppends

	snap, err := durable.ReadSnapshot(snapPath)
	if err != nil {
		return err
	}
	out := filepath.Join(probe, "probe.snap")
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		if err := durable.WriteSnapshot(out, snap); err != nil {
			return err
		}
		d.snapWriteMS = append(d.snapWriteMS, float64(time.Since(t0))/1e6)
	}
	if fi, err = os.Stat(out); err != nil {
		return err
	}
	d.snapBytes = float64(fi.Size())
	return nil
}
