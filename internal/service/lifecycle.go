package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"glade/internal/telemetry"
)

// lifecycle is the state every run shares, learn job and fuzzing campaign
// alike: queued → running → one terminal state (done, failed, canceled),
// the timestamps, the error, and the cancellation handle. Job and
// CampaignRun embed it and add their payloads. All fields are guarded by
// mu except the write bookkeeping, which wmu guards.
type lifecycle struct {
	ID string

	mu sync.Mutex
	// changed is closed and dropped on every mutation, so watchers block
	// for "anything new" without polling; nil until someone watches.
	changed chan struct{}
	// version counts mutations; campaign watchers use it as their cursor.
	version  int
	state    JobState
	err      string
	created  time.Time
	started  time.Time
	finished time.Time
	// cancel aborts the running work's context. cancelRequested records
	// that a DELETE asked for cancellation: it keeps a queued run from
	// starting, and maps the resulting context error to canceled.
	cancel          func()
	cancelRequested bool
	// reqID is the submitting HTTP request's ID ("" for direct Submit
	// calls); immutable after creation, threaded through lifecycle logs.
	reqID string

	// wseq numbers record snapshots (taken under mu); written is the
	// number of the snapshot on disk. Writes serialize on wmu and skip a
	// snapshot older than written, so a record never regresses.
	wseq    uint64
	wmu     sync.Mutex
	written uint64
}

// queuedLifecycle is the lifecycle of a freshly submitted run.
func queuedLifecycle() lifecycle {
	return lifecycle{ID: newID(), state: JobQueued, created: time.Now()}
}

func (c *lifecycle) life() *lifecycle { return c }

// touch wakes every watcher. Callers hold c.mu.
func (c *lifecycle) touch() {
	c.version++
	if c.changed != nil {
		close(c.changed)
		c.changed = nil
	}
}

// changedLocked returns the channel the next mutation closes. Callers
// hold c.mu.
func (c *lifecycle) changedLocked() <-chan struct{} {
	if c.changed == nil {
		c.changed = make(chan struct{})
	}
	return c.changed
}

// terminal reports whether the run reached a terminal state.
func (c *lifecycle) terminal() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state.terminal()
}

// update applies a payload change and wakes watchers, unless the run is
// already terminal: a terminal run never changes again.
func (c *lifecycle) update(fn func()) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state.terminal() {
		return false
	}
	fn()
	c.touch()
	return true
}

// arm records the cancel function of the run's work. It refuses a run that
// is terminal or whose cancellation was already requested; the worker then
// drops it, and the cancelling path lands it in canceled.
func (c *lifecycle) arm(cancel func()) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state.terminal() || c.cancelRequested {
		return false
	}
	c.cancel = cancel
	return true
}

// begin moves the run to running (stamping started once) and applies fn,
// refusing exactly the runs arm refuses.
func (c *lifecycle) begin(fn func()) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state.terminal() || c.cancelRequested {
		return false
	}
	c.state = JobRunning
	if c.started.IsZero() {
		c.started = time.Now()
	}
	if fn != nil {
		fn()
	}
	c.touch()
	return true
}

// canceling reports whether a DELETE asked for the run's cancellation.
func (c *lifecycle) canceling() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cancelRequested
}

// runner is a run a ledger manages: a lifecycle plus a payload that knows
// its on-disk record.
type runner interface {
	life() *lifecycle
	// recordLocked returns the run's on-disk record. Callers hold its lock.
	recordLocked() any
	// endLocked drops payload a terminal run no longer needs. Callers hold
	// its lock.
	endLocked()
}

// runMetrics are one run kind's lifecycle counters.
type runMetrics struct {
	submitted *telemetry.Counter
	finished  map[JobState]*telemetry.Counter
}

// newRunMetrics registers <prefix>_submitted_total and one
// <prefix>_<state>_total counter per terminal state.
func newRunMetrics(reg *telemetry.Registry, prefix, submittedHelp, finishedHelp string) runMetrics {
	m := runMetrics{
		submitted: reg.Counter(prefix+"_submitted_total", submittedHelp),
		finished:  map[JobState]*telemetry.Counter{},
	}
	for _, st := range []JobState{JobDone, JobFailed, JobCanceled} {
		m.finished[st] = reg.Counter(prefix+"_"+string(st)+"_total", finishedHelp)
	}
	return m
}

// ledger owns every run of one kind: the id map, submission order, the
// bounded queue and its workers, pruning, the on-disk records under
// <DataDir>/<noun>s/<id>.json, and their restore on open. Lock order:
// ledger.mu, then a run's mu, then its wmu.
type ledger[R runner] struct {
	noun     string // "job" or "campaign"
	dir      string
	log      *slog.Logger
	met      runMetrics
	draining *atomic.Bool
	// decode parses an on-disk record back into a terminal-or-running run.
	decode func([]byte) (R, error)
	// onFinish, when set, runs with the run's lock held after the terminal
	// counter is bumped (jobs add their oracle queries).
	onFinish func(R)

	mu    sync.Mutex
	byID  map[string]R
	order []R // submission order, for listing
	queue chan R
}

// maxHistory bounds the runs each ledger retains in memory. Evicted
// terminal runs keep their record on disk (and grammars live on in the
// store).
const maxHistory = 1024

func newLedger[R runner](s *Server, noun string, met runMetrics, decode func([]byte) (R, error)) *ledger[R] {
	return &ledger[R]{
		noun:     noun,
		dir:      filepath.Join(s.store.Dir(), noun+"s"),
		log:      s.log,
		met:      met,
		draining: &s.draining,
		decode:   decode,
		byID:     map[string]R{},
		queue:    make(chan R, s.cfg.QueueDepth),
	}
}

// logger returns the base logger with the run's identity attached, so
// every lifecycle line carries its ID and, when it arrived over HTTP, the
// submitting request's ID.
func (l *ledger[R]) logger(r R) *slog.Logger {
	c := r.life()
	lg := l.log.With(l.noun, c.ID)
	if c.reqID != "" {
		lg = lg.With("req", c.reqID)
	}
	return lg
}

func (l *ledger[R]) get(id string) (R, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.byID[id]
	return r, ok
}

func (l *ledger[R]) list() []R {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]R(nil), l.order...)
}

// count returns how many retained runs are in state.
func (l *ledger[R]) count(state JobState) int {
	n := 0
	for _, r := range l.list() {
		c := r.life()
		c.mu.Lock()
		if c.state == state {
			n++
		}
		c.mu.Unlock()
	}
	return n
}

func (l *ledger[R]) addLocked(r R) {
	l.byID[r.life().ID] = r
	l.order = append(l.order, r)
}

// submit enqueues a new run. It refuses from the moment draining begins
// (Drain or Close), since a run accepted then might be abandoned
// mid-shutdown; Close closes the queue only after setting draining, under
// l.mu, so the send below never races the close.
func (l *ledger[R]) submit(r R) error {
	id := r.life().ID
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.draining.Load() {
		return errDraining
	}
	if _, dup := l.byID[id]; dup {
		return fmt.Errorf("%w: %s %q", errDuplicateID, l.noun, id)
	}
	select {
	case l.queue <- r:
	default:
		return errQueueFull
	}
	l.addLocked(r)
	l.pruneLocked()
	l.met.submitted.Inc()
	return nil
}

// pruneLocked evicts the oldest terminal runs once the ledger outgrows
// maxHistory, so a long-lived daemon's memory stays bounded. Queued and
// running runs are never evicted. Callers hold l.mu.
func (l *ledger[R]) pruneLocked() {
	excess := len(l.order) - maxHistory
	if excess <= 0 {
		return
	}
	kept := l.order[:0]
	for _, r := range l.order {
		if excess > 0 && r.life().terminal() {
			delete(l.byID, r.life().ID)
			excess--
			continue
		}
		kept = append(kept, r)
	}
	clear(l.order[len(kept):])
	l.order = kept
}

// start launches n workers draining the queue; each skips runs that were
// cancelled while queued.
func (l *ledger[R]) start(n int, wg *sync.WaitGroup, run func(R)) {
	for range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range l.queue {
				if !r.life().terminal() {
					run(r)
				}
			}
		}()
	}
}

// drain closes the queue and fails every run still in it. Workers race
// this loop for the remaining runs; finish lets exactly one outcome land.
// Callers set draining first (see submit).
func (l *ledger[R]) drain() {
	l.mu.Lock()
	close(l.queue)
	l.mu.Unlock()
	for r := range l.queue {
		l.finish(r, fmt.Errorf("server shut down before the %s ran", l.noun), nil)
	}
}

// finish is the only way into a terminal state, and the first call wins:
// it does nothing when the run is already terminal. Otherwise it derives
// the state from err (nil is done; a context cancellation the API asked
// for is canceled; anything else is failed), applies the payload's final
// update, writes the record, bumps the lifecycle counter, and only then
// wakes watchers. It holds the run's lock throughout, so no reader sees
// the terminal state before it is on disk.
func (l *ledger[R]) finish(r R, err error, apply func()) (JobState, bool) {
	c := r.life()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state.terminal() {
		return "", false
	}
	switch {
	case err == nil:
		c.state = JobDone
	case c.cancelRequested && errors.Is(err, context.Canceled):
		c.state, c.err = JobCanceled, "canceled by request"
	default:
		c.state, c.err = JobFailed, err.Error()
	}
	if c.finished.IsZero() {
		c.finished = time.Now()
	}
	if apply != nil {
		apply()
	}
	r.endLocked()
	c.wseq++
	l.write(c, c.wseq, r.recordLocked())
	l.tally(r)
	c.touch()
	return c.state, true
}

// tally bumps the lifecycle counter of r's terminal state. Callers hold
// r's lock.
func (l *ledger[R]) tally(r R) {
	l.met.finished[r.life().state].Inc()
	if l.onFinish != nil {
		l.onFinish(r)
	}
}

// persist checkpoints the run's current record.
func (l *ledger[R]) persist(r R) {
	c := r.life()
	c.mu.Lock()
	c.wseq++
	seq, rec := c.wseq, r.recordLocked()
	c.mu.Unlock()
	l.write(c, seq, rec)
}

// write stores snapshot seq of a run's record atomically, unless a newer
// snapshot is already on disk. Failures are logged, not fatal: the
// in-memory run stays authoritative.
func (l *ledger[R]) write(c *lifecycle, seq uint64, rec any) {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		l.log.Warn(l.noun+" record marshal failed", l.noun, c.ID, "err", err)
		return
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if seq < c.written {
		return
	}
	if err := os.MkdirAll(l.dir, 0o755); err != nil {
		l.log.Warn(l.noun+"s dir create failed", l.noun, c.ID, "err", err)
		return
	}
	if err := writeAtomic(filepath.Join(l.dir, c.ID+".json"), append(data, '\n')); err != nil {
		l.log.Warn(l.noun+" record persist failed", l.noun, c.ID, "err", err)
		return
	}
	c.written = seq
}

// restore loads the persisted records at startup, so outcomes survive
// daemon restarts. Restored terminal runs count toward the lifecycle
// counters; a record left running by a previous incarnation is finished
// as failed, keeping its last checkpointed payload.
func (l *ledger[R]) restore() {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return // no records yet
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	loaded := 0
	for _, e := range entries {
		id, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok {
			continue
		}
		data, err := os.ReadFile(filepath.Join(l.dir, e.Name()))
		if err != nil {
			l.log.Warn("skipping unreadable "+l.noun+" record", "file", e.Name(), "err", err)
			continue
		}
		r, err := l.decode(data)
		if err != nil || r.life().ID != id {
			l.log.Warn("skipping bad "+l.noun+" record", "file", e.Name())
			continue
		}
		if r.life().state.terminal() {
			l.tally(r)
		} else {
			l.finish(r, fmt.Errorf("daemon restarted before the %s finished", l.noun), nil)
		}
		l.addLocked(r)
		loaded++
	}
	if loaded > 0 {
		// Listings are submission-ordered; restored records sort by their
		// original creation time.
		sort.Slice(l.order, func(i, k int) bool {
			a, b := l.order[i].life(), l.order[k].life()
			if a.created.Equal(b.created) {
				return a.ID < b.ID
			}
			return a.created.Before(b.created)
		})
		l.log.Info(l.noun+" records loaded", "count", loaded, "dir", l.dir)
	}
}

// cancel cancels a run by id: a queued run lands in canceled immediately
// (arm and begin refuse it from now on), a running one has its context
// cancelled and lands in canceled once its work unwinds. Cancelling a
// terminal run reports errAlreadyTerminal.
func (l *ledger[R]) cancel(id string) (R, error) {
	r, ok := l.get(id)
	if !ok {
		return r, fmt.Errorf("%w: no %s %q", errNotFound, l.noun, id)
	}
	c := r.life()
	c.mu.Lock()
	if c.state.terminal() {
		c.mu.Unlock()
		return r, errAlreadyTerminal
	}
	c.cancelRequested = true
	queued, stop := c.state == JobQueued, c.cancel
	c.mu.Unlock()
	if stop != nil {
		stop()
	}
	if queued {
		l.finish(r, context.Canceled, nil)
		l.logger(r).Info(l.noun + " canceled while queued")
	} else {
		l.logger(r).Info(l.noun + " cancellation requested")
	}
	return r, nil
}

// errAlreadyTerminal tags cancellations of work that already finished, so
// the HTTP layer can answer 409 instead of 404/400.
var errAlreadyTerminal = fmt.Errorf("already in a terminal state")
