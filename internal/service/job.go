package service

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"strings"
	"time"

	"glade/internal/bytesets"
	"glade/internal/core"
	"glade/internal/metrics"
	"glade/internal/oracle"
	"glade/internal/telemetry"
	// The registry fills oracle's named table: importing service is enough
	// to make every builtin, program, and target spec resolvable.
	_ "glade/internal/oracle/registry"
)

// buildOracle resolves a spec against the server's defaults with no
// resilience layer — the cheap form the validation-only paths use (a
// submission check never issues a query, so it needs no retry loop).
func buildOracle(sp oracle.Spec, workers int, defaultTimeout time.Duration) (oracle.CheckOracle, []string, error) {
	return sp.Build(oracle.BuildOptions{Workers: workers, DefaultTimeout: defaultTimeout})
}

// buildResilientOracle is the query-issuing form: the oracle every job,
// campaign, and validity-filtered generation actually runs carries the
// server's resilience layer — the clamped retry budget, the circuit
// breaker, and the shared per-source telemetry instruments.
func (s *Server) buildResilientOracle(sp oracle.Spec, workers, retries int, met *oracle.ResilientMetrics) (oracle.CheckOracle, []string, error) {
	opt := oracle.BuildOptions{Workers: workers, DefaultTimeout: s.cfg.DefaultOracleTimeout}
	if retries > 0 {
		opt.Retry = oracle.RetryPolicy{MaxAttempts: retries + 1}
	}
	if s.cfg.BreakerThreshold > 0 {
		opt.Breaker = oracle.BreakerPolicy{Threshold: s.cfg.BreakerThreshold}
	}
	opt.ResilientMetrics = met // used only when the options add the wrapper
	return sp.Build(opt)
}

// JobOptions is the client-settable subset of core.Options. Pointer fields
// distinguish "unset, use the default" from explicit false/zero.
type JobOptions struct {
	Phase2            *bool `json:"phase2,omitempty"`
	CharGen           *bool `json:"chargen,omitempty"`
	Workers           int   `json:"workers,omitempty"`
	TimeoutMS         int   `json:"timeout_ms,omitempty"`
	MergeSampleChecks *int  `json:"merge_sample_checks,omitempty"`
	RandSeed          int64 `json:"rand_seed,omitempty"`
	// Retries is the per-query transient-failure retry budget (nil uses
	// the server default, clamped server-side to Config.MaxRetries).
	Retries *int `json:"retries,omitempty"`
}

// JobSpec is the body of POST /v1/jobs. Empty Seeds with a named oracle
// (builtin, program, target) selects the oracle's bundled seeds.
type JobSpec struct {
	Seeds   []string    `json:"seeds,omitempty"`
	Oracle  oracle.Spec `json:"oracle"`
	Options *JobOptions `json:"options,omitempty"`
}

// resolveOptions maps the spec onto core.Options, starting from the
// paper's defaults. Exec oracles restrict character generalization to the
// bytes of the seeds plus common structural characters, exactly as
// cmd/glade does — external processes are too expensive for a full
// printable-ASCII sweep per literal position; in-process oracles get the
// full sweep.
func (spec JobSpec) resolveOptions(cfg Config, seeds []string) core.Options {
	opts := core.DefaultOptions()
	opts.Timeout = cfg.MaxJobDuration
	opts.Workers = cfg.DefaultWorkers
	if spec.Oracle.IsExec() {
		opts.GenAlphabet = bytesets.OfString(strings.Join(seeds, "")).
			Union(bytesets.OfString(" \t\nabcxyz012<>()[]{}/\\\"'"))
	}
	jo := spec.Options
	if jo == nil {
		return opts
	}
	if jo.Phase2 != nil {
		opts.Phase2 = *jo.Phase2
	}
	if jo.CharGen != nil {
		opts.CharGen = *jo.CharGen
	}
	if jo.Workers > 0 {
		opts.Workers = min(jo.Workers, cfg.MaxWorkers)
	}
	if jo.TimeoutMS > 0 {
		t := time.Duration(jo.TimeoutMS) * time.Millisecond
		if cfg.MaxJobDuration == 0 || t < cfg.MaxJobDuration {
			opts.Timeout = t
		}
	}
	if jo.MergeSampleChecks != nil {
		opts.MergeSampleChecks = *jo.MergeSampleChecks
	}
	if jo.RandSeed != 0 {
		opts.RandSeed = jo.RandSeed
	}
	return opts
}

// JobState is the lifecycle of a learn job.
type JobState string

const (
	JobQueued   JobState = "queued"   // accepted, waiting for a scheduler slot
	JobRunning  JobState = "running"  // learning (or, for campaigns, fuzzing)
	JobDone     JobState = "done"     // finished; the grammar or report is available
	JobFailed   JobState = "failed"   // finished unsuccessfully; Error says why
	JobCanceled JobState = "canceled" // cancelled by DELETE before finishing; distinct from failed
)

// terminal reports whether the state is final (no further transitions).
func (s JobState) terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// Job is one learn job owned by the server: the shared run lifecycle plus
// the learner's payload (event stream, stats, spans, and seeds).
type Job struct {
	lifecycle
	Spec JobSpec

	// events buffers progress for snapshots and watchers. Slots
	// [0, len-1) hold the first events verbatim; once seq outgrows the
	// buffer the tail slot is overwritten with the newest event, so the
	// buffer is "head of the stream + latest". seq counts every event
	// ever emitted and is the watcher cursor space.
	events  []core.Progress
	seq     int
	stats   core.Stats
	queries metrics.QueryStats
	// spans are the learner's phase spans (core.Options.Tracer), recorded
	// once the learn returns and persisted with the terminal record.
	spans []telemetry.Span
	// seeds are the resolved seed inputs (spec seeds or builtin defaults);
	// dropped once the job reaches a terminal state (the store keeps them
	// in GrammarMeta), leaving seedCount for snapshots.
	seeds     []string
	seedCount int
}

func newJob(spec JobSpec) *Job {
	return &Job{lifecycle: queuedLifecycle(), Spec: spec}
}

// newID returns a 12-hex-digit random identifier.
func newID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("service: crypto/rand failed: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// appendEvent records one learner progress event. maxEvents bounds memory:
// char-gen on many seeds can emit thousands of literal events, so the
// buffer keeps the head of the stream and overwrites the tail slot with
// the newest event; watchers track seq, not buffer indices, so they keep
// sampling the latest event after the buffer fills.
const maxEvents = 512

func (j *Job) appendEvent(p core.Progress) {
	j.update(func() {
		if j.seq < maxEvents {
			j.events = append(j.events, p)
		} else {
			j.events[len(j.events)-1] = p
		}
		j.seq++
	})
}

// JobStatus is the wire form of a job snapshot.
type JobStatus struct {
	ID       string     `json:"id"`
	State    JobState   `json:"state"`
	Oracle   string     `json:"oracle"`
	Seeds    int        `json:"seeds"`
	Created  time.Time  `json:"created_at"`
	Started  *time.Time `json:"started_at,omitempty"`
	Finished *time.Time `json:"finished_at,omitempty"`
	Error    string     `json:"error,omitempty"`
	// Progress is the most recent learner event (nil before the run
	// starts); Events is the full buffered stream when requested.
	Progress *core.Progress  `json:"progress,omitempty"`
	Events   []core.Progress `json:"events,omitempty"`
	// GrammarID is set once the job is done; the grammar then lives at
	// /v1/grammars/{grammar_id}.
	GrammarID string      `json:"grammar_id,omitempty"`
	Stats     *core.Stats `json:"stats,omitempty"`
	// Spans is the learner's phase-span trace (per-phase wall time and
	// effort counters), included when events are requested.
	Spans []telemetry.Span `json:"spans,omitempty"`
}

// status snapshots the job. withEvents includes the buffered event stream.
func (j *Job) status(withEvents bool) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:      j.ID,
		State:   j.state,
		Oracle:  j.Spec.Oracle.String(),
		Seeds:   j.seedCount,
		Created: j.created,
		Error:   j.err,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if n := len(j.events); n > 0 {
		p := j.events[n-1]
		st.Progress = &p
		if withEvents {
			st.Events = append([]core.Progress(nil), j.events...)
		}
	}
	if withEvents && len(j.spans) > 0 {
		st.Spans = append([]telemetry.Span(nil), j.spans...)
	}
	if j.state == JobDone {
		st.GrammarID = j.ID
		s := j.stats
		st.Stats = &s
	}
	return st
}

// watch returns the events past cursor (a seq position), the advanced
// cursor, the current state, and a channel closed on the next mutation.
// While the buffer holds the whole stream delivery is exact; once it has
// overflowed, watchers past the exact head receive the newest event only
// (middles were dropped). Terminal states never mutate again.
func (j *Job) watch(cursor int) ([]core.Progress, int, JobState, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var fresh []core.Progress
	if j.seq <= len(j.events) {
		// No overflow yet: buffer positions are seq positions.
		if cursor < j.seq {
			fresh = append(fresh, j.events[cursor:]...)
			cursor = j.seq
		}
	} else {
		head := len(j.events) - 1 // slots [0, head) are exact; tail is event seq-1
		if cursor < head {
			fresh = append(fresh, j.events[cursor:head]...)
			cursor = head
		}
		if cursor < j.seq {
			fresh = append(fresh, j.events[head])
			cursor = j.seq
		}
	}
	return fresh, cursor, j.state, j.changedLocked()
}

// queryStats returns the oracle-level timing snapshot recorded for the job.
func (j *Job) queryStats() (metrics.QueryStats, JobState) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.queries, j.state
}

// phaseSummary aggregates the job's phase spans: total wall nanoseconds
// per phase name, nil while no spans are recorded.
func (j *Job) phaseSummary() map[string]int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if len(j.spans) == 0 {
		return nil
	}
	out := make(map[string]int64, 4)
	for _, sp := range j.spans {
		out[sp.Name] += sp.DurationNS
	}
	return out
}

// jobRecord is the JSON persisted per terminal job under
// <DataDir>/jobs/<id>.json. Only terminal states are written: queued and
// running jobs are in-memory creatures that do not survive a restart, but
// a finished — and in particular a canceled — job's outcome does, so
// clients polling across a daemon restart still see what happened.
type jobRecord struct {
	ID       string      `json:"id"`
	State    JobState    `json:"state"`
	Oracle   string      `json:"oracle"`
	Seeds    int         `json:"seeds"`
	Created  time.Time   `json:"created_at"`
	Started  time.Time   `json:"started_at,omitempty"`
	Finished time.Time   `json:"finished_at,omitempty"`
	Error    string      `json:"error,omitempty"`
	Stats    *core.Stats `json:"stats,omitempty"`
	// Spans is the learner's phase trace, kept with the record so restored
	// jobs still answer span queries after a restart.
	Spans []telemetry.Span `json:"spans,omitempty"`
}

func (j *Job) recordLocked() any {
	rec := jobRecord{
		ID:       j.ID,
		State:    j.state,
		Oracle:   j.Spec.Oracle.String(),
		Seeds:    j.seedCount,
		Created:  j.created,
		Started:  j.started,
		Finished: j.finished,
		Error:    j.err,
		Spans:    j.spans,
	}
	if j.state == JobDone {
		st := j.stats
		rec.Stats = &st
	}
	return rec
}

// endLocked drops the seeds: GrammarMeta keeps them.
func (j *Job) endLocked() { j.seeds = nil }

// decodeJob restores a job from its record.
func decodeJob(data []byte) (*Job, error) {
	var rec jobRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, err
	}
	j := &Job{
		lifecycle: lifecycle{
			ID:       rec.ID,
			state:    rec.State,
			err:      rec.Error,
			created:  rec.Created,
			started:  rec.Started,
			finished: rec.Finished,
		},
		seedCount: rec.Seeds,
		spans:     rec.Spans,
	}
	j.Spec.Oracle = specFromName(rec.Oracle)
	if rec.Stats != nil {
		j.stats = *rec.Stats
	}
	return j, nil
}

// specFromName reconstructs a display-only oracle.Spec from the persisted
// "kind:detail" string (oracle.ParseSpec inverts Spec.String), so restored
// jobs render the same oracle column. The spec is not guaranteed runnable
// (exec argv quoting is lossy); restored jobs are terminal and never
// rebuild their oracle.
func specFromName(name string) oracle.Spec {
	sp, err := oracle.ParseSpec(name)
	if err != nil {
		return oracle.Spec{}
	}
	return sp
}
