package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"glade/internal/cfg"
	"glade/internal/core"
	"glade/internal/oracle"
	"glade/internal/service"
	"glade/internal/telemetry"
)

// learnJob is the learn one workload submits through POST /v1/jobs, plus
// what the benchmark needs to check and replay it.
type learnJob struct {
	spec    service.JobSpec
	seeds   []string // the seeds the job resolves to, for the library replay
	want    string   // expected grammar text; a fetched grammar that differs is a failure
	wantSrc string   // where want came from, for error messages
}

// learnSample is one learn journey: submit, wait for a terminal state,
// fetch the stored grammar.
type learnSample struct {
	id      string
	total   time.Duration // submit until the grammar has been fetched
	cpu     time.Duration // process CPU time over the same interval
	submit  time.Duration // POST /v1/jobs round trip
	wait    time.Duration // watch stream until the terminal snapshot
	fetch   time.Duration // GET /v1/grammars/{id} round trip
	queue   time.Duration // started_at - created_at
	run     time.Duration // finished_at - started_at
	lag     time.Duration // terminal state seen by the client - finished_at
	stats   core.Stats
	grammar string // the fetched grammar, kept for traced learns only
	trace   string
	ok      bool
	err     string
}

// learnOnce runs one learn journey against n. With traced, every request
// carries a traceparent of one fresh trace and the client's spans go to rec.
func learnOnce(n *node, job learnJob, rec *recorder, traced bool) learnSample {
	var smp learnSample
	body, err := json.Marshal(job.spec)
	if err != nil {
		smp.err = err.Error()
		return smp
	}
	var trace, root string
	tp := func(parent string) string { return "" }
	if traced {
		trace, root = newTrace()
		tp = func(parent string) string { return traceparent(trace, parent) }
		smp.trace = trace
	}
	sub, wait, fetch := randHex(8), randHex(8), randHex(8)

	t0, cpu0 := time.Now(), processCPU()
	code, out, err := n.do(http.MethodPost, "/v1/jobs", body, tp(sub))
	t1 := time.Now()
	if err != nil || code != http.StatusAccepted {
		smp.err = fmt.Sprintf("submit: %d %v %s", code, err, strings.TrimSpace(string(out)))
		return smp
	}
	var st service.JobStatus
	if err := json.Unmarshal(out, &st); err != nil {
		smp.err = "submit: " + err.Error()
		return smp
	}
	smp.id = st.ID

	final, err := n.watch(st.ID, tp(wait))
	t2 := time.Now()
	if err != nil {
		smp.err = "watch: " + err.Error()
		return smp
	}
	if final.State != service.JobDone {
		smp.err = fmt.Sprintf("job %s ended %s: %s", st.ID, final.State, final.Error)
		return smp
	}
	code, text, err := n.do(http.MethodGet, "/v1/grammars/"+st.ID, nil, tp(fetch))
	t3 := time.Now()
	if err != nil || code != http.StatusOK {
		smp.err = fmt.Sprintf("fetch: %d %v", code, err)
		return smp
	}

	smp.total, smp.submit, smp.wait, smp.fetch = t3.Sub(t0), t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	smp.cpu = processCPU() - cpu0
	if final.Started != nil && final.Finished != nil {
		smp.queue = final.Started.Sub(final.Created)
		smp.run = final.Finished.Sub(*final.Started)
		smp.lag = t2.Sub(*final.Finished)
	}
	if final.Stats != nil {
		smp.stats = *final.Stats
	}
	if string(text) != job.want {
		smp.err = fmt.Sprintf("job %s: fetched grammar differs from %s", st.ID, job.wantSrc)
		return smp
	}
	smp.ok = true
	if traced {
		// Kept for the library replay to match; untraced samples drop it.
		smp.grammar = string(text)
		rec.add(span{Trace: trace, ID: root, Name: "learn", Start: t0, DurNS: smp.total.Nanoseconds()})
		rec.add(span{Trace: trace, ID: sub, Parent: root, Name: "submit", Start: t0, DurNS: smp.submit.Nanoseconds()})
		rec.add(span{Trace: trace, ID: wait, Parent: root, Name: "wait", Start: t1, DurNS: smp.wait.Nanoseconds()})
		rec.add(span{Trace: trace, ID: fetch, Parent: root, Name: "fetch", Start: t2, DurNS: smp.fetch.Nanoseconds()})
	}
	return smp
}

// watch follows GET /v1/jobs/{id}?watch=1 until the stream's terminal
// snapshot and returns it.
func (n *node) watch(id, tp string) (service.JobStatus, error) {
	req, err := http.NewRequest(http.MethodGet, n.base+"/v1/jobs/"+id+"?watch=1", nil)
	if err != nil {
		return service.JobStatus{}, err
	}
	if tp != "" {
		req.Header.Set("traceparent", tp)
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return service.JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return service.JobStatus{}, fmt.Errorf("status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		// Progress events carry "phase"; only the closing job snapshot
		// carries "state".
		if !strings.Contains(string(line), `"state"`) {
			continue
		}
		var st service.JobStatus
		if err := json.Unmarshal(line, &st); err != nil {
			return st, err
		}
		switch st.State {
		case service.JobDone, service.JobFailed, service.JobCanceled:
			return st, nil
		}
	}
	if err := sc.Err(); err != nil {
		return service.JobStatus{}, err
	}
	return service.JobStatus{}, fmt.Errorf("watch stream ended before a terminal state")
}

// jobDetail reads what the service itself reports about a finished job:
// its phase spans (GET /v1/jobs/{id}?events=1) and its oracle query stats
// (the job's row in GET /v1/stats). The spans join the job's trace as
// children of the client's wait span.
func jobDetail(n *node, smp learnSample, rec *recorder) (jobStatsRow, error) {
	var st service.JobStatus
	if err := n.getJSON("/v1/jobs/"+smp.id+"?events=1", &st); err != nil {
		return jobStatsRow{}, err
	}
	if wait, ok := rec.find(smp.trace, "wait"); ok {
		for _, sp := range st.Spans {
			rec.add(span{Trace: smp.trace, ID: randHex(8), Parent: wait.ID, Name: "job." + sp.Name,
				Start: sp.Start, DurNS: sp.DurationNS, Attrs: sp.Attrs})
		}
	}
	var stats struct {
		Jobs []jobStatsRow `json:"jobs"`
	}
	if err := n.getJSON("/v1/stats", &stats); err != nil {
		return jobStatsRow{}, err
	}
	for _, row := range stats.Jobs {
		if row.ID == smp.id {
			return row, nil
		}
	}
	return jobStatsRow{}, fmt.Errorf("job %s missing from /v1/stats", smp.id)
}

// jobStatsRow is the subset of a GET /v1/stats job row the benchmark reads.
type jobStatsRow struct {
	ID            string  `json:"id"`
	OracleQueries int     `json:"oracle_queries"`
	OracleWallMS  float64 `json:"oracle_wall_ms"`
	MeanLatencyMS float64 `json:"mean_latency_ms"`
}

// replayOptions reproduces the core.Options glade-serve resolves for a job
// spec (service.JobSpec's resolution under glade-serve's default flags),
// so the library replay learns exactly what the job learned.
func replayOptions(job learnJob) core.Options {
	opts := core.DefaultOptions()
	opts.Timeout = 5 * time.Minute
	opts.Workers = 1
	if job.spec.Options != nil && job.spec.Options.Workers > 0 {
		opts.Workers = job.spec.Options.Workers
	}
	return opts
}

// replayOracle builds the job's oracle the way glade-serve does for a job:
// the spec under the default per-query timeout and circuit breaker.
func replayOracle(job learnJob, workers int) (oracle.CheckOracle, error) {
	o, _, err := job.spec.Oracle.Build(oracle.BuildOptions{
		Workers:        workers,
		DefaultTimeout: 10 * time.Second,
		Breaker:        oracle.BreakerPolicy{Threshold: 16},
	})
	return o, err
}

// replay is one library learn through core.Learn: the job's learn without
// the service around it.
type replay struct {
	wall       time.Duration
	oracleWall time.Duration // time with at least one query in flight
	latencies  []time.Duration
	allocBytes uint64
	phases     map[string]time.Duration
	grammar    string
}

// replayLearn runs the job's learn through core.Learn with a phase tracer
// and a timing oracle wrapper below the learner's worker pool. Oracle time
// is kept as per-phase counters on the phase spans, not per-query spans.
// The spans join trace (when non-empty) under one replay span.
func replayLearn(ctx context.Context, job learnJob, rec *recorder, trace string) (replay, error) {
	opts := replayOptions(job)
	inner, err := replayOracle(job, opts.Workers)
	if err != nil {
		return replay{}, err
	}
	to := &timedOracle{inner: inner}
	root := randHex(8)
	var phaseSpans []span
	var lastBusy, lastWall time.Duration
	phases := map[string]time.Duration{}
	opts.Tracer = telemetry.TracerFunc(func(s telemetry.Span) {
		busy, wall := to.totals()
		attrs := map[string]float64{}
		for k, v := range s.Attrs {
			attrs[k] = v
		}
		attrs["oracle_busy_ns"] = float64(busy - lastBusy)
		attrs["oracle_wall_ns"] = float64(wall - lastWall)
		lastBusy, lastWall = busy, wall
		phases[s.Name] += s.Duration()
		phaseSpans = append(phaseSpans, span{Trace: trace, ID: randHex(8), Parent: root,
			Name: "core." + s.Name, Start: s.Start, DurNS: s.DurationNS, Attrs: attrs})
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := core.Learn(ctx, job.seeds, to, opts)
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return replay{}, err
	}
	busy, owall := to.totals()
	if trace != "" {
		rec.add(span{Trace: trace, ID: root, Name: "replay", Start: start, DurNS: wall.Nanoseconds(),
			Attrs: map[string]float64{"oracle_busy_ns": float64(busy), "oracle_wall_ns": float64(owall)}})
		for _, s := range phaseSpans {
			rec.add(s)
		}
	}
	return replay{
		wall:       wall,
		oracleWall: owall,
		latencies:  to.lat,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		phases:     phases,
		grammar:    cfg.Marshal(res.Grammar),
	}, nil
}

// timedOracle times every query it forwards. It implements only the
// single-query path, so the learner's worker pool fans waves out over it
// and each observation is one oracle run.
type timedOracle struct {
	inner oracle.CheckOracle

	mu       sync.Mutex
	lat      []time.Duration
	busy     time.Duration
	inflight int
	since    time.Time // when inflight last rose from zero
	wall     time.Duration
}

// Check implements oracle.CheckOracle.
func (t *timedOracle) Check(ctx context.Context, input string) (oracle.Verdict, error) {
	t.mu.Lock()
	start := time.Now()
	if t.inflight == 0 {
		t.since = start
	}
	t.inflight++
	t.mu.Unlock()

	v, err := t.inner.Check(ctx, input)

	t.mu.Lock()
	end := time.Now()
	t.lat = append(t.lat, end.Sub(start))
	t.busy += end.Sub(start)
	t.inflight--
	if t.inflight == 0 {
		t.wall += end.Sub(t.since)
	}
	t.mu.Unlock()
	return v, err
}

// totals returns the summed query latency and the time with at least one
// query in flight, both so far.
func (t *timedOracle) totals() (busy, wall time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	wall = t.wall
	if t.inflight > 0 {
		wall += time.Since(t.since)
	}
	return t.busy, wall
}
