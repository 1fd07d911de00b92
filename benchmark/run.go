package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"glade/internal/cfg"
	"glade/internal/oracle"
	"glade/internal/service"
)

// Config parameterizes one benchmark run.
type Config struct {
	Workload string
	Seed     int64
	// Seconds is how long each of the workload's two journeys is measured;
	// a traced run splits it evenly between an untraced and a traced half.
	Seconds float64
	Trace   bool
	// TraceOut is where a traced run writes its spans ("" keeps them in
	// memory only).
	TraceOut string
	// Root is the repository checkout the goldens are read from.
	Root string
	// WorkDir holds the nodes' grammar stores while the run lasts.
	WorkDir string
	// Setups is how many times the node is set up; setup_s is the median.
	Setups int
	// WarmBatches is the number of check batches in each setup's warm-up;
	// the default is one whole pass over the batches, the same work for
	// every seed.
	WarmBatches int
	// XMLGolden overrides the expected xml grammar.
	XMLGolden string
	// FlipVerdict inverts the expected verdict of the corpus input at this
	// index (negative: none), to prove wrong verdicts are caught.
	FlipVerdict int
}

func defaultConfig() Config {
	return Config{
		Seed:        1,
		Seconds:     10,
		Root:        ".",
		WorkDir:     ".bench_build/run",
		Setups:      9,
		WarmBatches: corpusSize / batchSize * batchRounds,
		FlipVerdict: -1,
	}
}

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the outcome of one run, marshaled as the run's last line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// Record holds the facts printed beside the metrics: environment,
	// corpus mix, sample counts, isolation and split checks.
	Record map[string]any `json:"-"`
	Errors []string       `json:"-"`
}

func (r *Result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

// fail counts failures, keeping the first few messages.
func (r *Result) fail(n int, msg string) {
	r.Failed += n
	if n > 0 && msg != "" && len(r.Errors) < 5 {
		r.Errors = append(r.Errors, msg)
	}
}

func (r *Result) addLearn(s learnSample) {
	r.Attempted++
	if !s.ok {
		r.fail(1, s.err)
	}
}

func (r *Result) addChecks(c checkRun) {
	r.Attempted += c.attempted
	r.fail(c.failed, c.firstErr)
}

// Run executes one workload and returns its result. An error means the
// run could not be carried out at all; correctness failures are counted
// in the result instead.
func Run(ctx context.Context, c Config) (*Result, error) {
	w, ok := lookupWorkload(c.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want learn-xml, check-sed, or all)", c.Workload)
	}
	if c.Seconds <= 0 || c.Setups < 1 {
		return nil, fmt.Errorf("seconds and setups must be positive")
	}
	if err := os.MkdirAll(c.WorkDir, 0o755); err != nil {
		return nil, err
	}
	job, err := w.job(c)
	if err != nil {
		return nil, err
	}
	res := &Result{Metrics: map[string]Metric{}, Record: map[string]any{}}
	floor, err := spawnFloor(ctx)
	if err != nil {
		return nil, err
	}
	res.Record["env"] = map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"spawn_floor_ms": floor,
	}
	// The check corpus comes from the expected grammar, which every learn
	// of the run must reproduce byte for byte.
	g, err := cfg.Unmarshal(job.want)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", job.wantSrc, err)
	}
	corp := buildCorpus(g, corpusSeed, corpusSize)
	if c.FlipVerdict >= 0 && c.FlipVerdict < len(corp.want) {
		corp.want[c.FlipVerdict] = !corp.want[c.FlipVerdict]
	}
	batches := makeBatches(corp, c.Seed, batchRounds)
	res.Record["corpus"] = map[string]any{
		"size": len(corp.inputs), "accept_share": corp.acceptShare,
		"dfa_share": corp.rungShare[cfg.RungDFA], "vm_share": corp.rungShare[cfg.RungVM],
		"earley_share": corp.rungShare[cfg.RungEarley],
	}

	var rec *recorder
	if c.Trace {
		rec = &recorder{}
	}
	window := time.Duration(c.Seconds * float64(time.Second))

	// Set up Setups times: boot, put the grammar the checks run against in
	// the store, warm the check path. A check workload learns that grammar
	// through the job API — its learn journey is measured here — while a
	// learn workload, which measures learns for the whole run, stores the
	// grammar its jobs must reproduce. The last node stays up for the run.
	var (
		n          *node
		gid        string
		setupTimes []float64
		setupLearn []learnSample
	)
	defer func() {
		if n != nil {
			n.close()
		}
	}()
	for k := 0; k < c.Setups; k++ {
		t0 := time.Now()
		n, err = bootNode(c.WorkDir, rec)
		if err != nil {
			return nil, err
		}
		if w.primary == "check" {
			smp := learnOnce(n, job, nil, false)
			res.addLearn(smp)
			setupLearn = append(setupLearn, smp)
			gid = smp.id
		} else {
			res.Attempted++
			if gid, err = storeGrammar(n, job, w.name); err != nil {
				res.fail(1, err.Error())
			}
		}
		if res.Failed > 0 {
			return finish(res, c.Trace), nil
		}
		res.addChecks(runChecks(n, gid, corp, batches, clients(), time.Minute, c.WarmBatches, c.Seed+int64(k), nil, false))
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if k < c.Setups-1 {
			n.close()
		}
	}

	m := &measure{c: c, w: w, job: job, n: n, rec: rec, res: res, gid: gid, corp: corp, batches: batches,
		spawnFloorMS: floor, learnUntraced: setupLearn}
	if !c.Trace {
		m.heapPeak()
	}
	if w.primary == "learn" {
		m.learns(window)
		m.checks(window)
	} else {
		m.checks(window)
		m.learns(window)
	}
	if c.Trace {
		m.layers()
	} else {
		m.endToEnd(setupTimes)
	}
	if err := rec.write(c.TraceOut); err != nil {
		return nil, err
	}
	return finish(res, c.Trace), nil
}

// storeGrammar puts the job's expected grammar in the node's store under
// an id of its own and fetches it back over the API, which must serve it
// byte for byte.
func storeGrammar(n *node, job learnJob, name string) (string, error) {
	g, err := cfg.Unmarshal(job.want)
	if err != nil {
		return "", fmt.Errorf("%s: %v", job.wantSrc, err)
	}
	id := "setup-" + name
	meta := service.GrammarMeta{ID: id, Oracle: job.spec.Oracle.String(), Spec: job.spec.Oracle,
		Seeds: job.seeds, CreatedAt: time.Now().UTC()}
	if err := n.srv.Store().Put(g, meta); err != nil {
		return "", err
	}
	code, body, err := n.do(http.MethodGet, "/v1/grammars/"+id, nil, "")
	switch {
	case err != nil:
		return "", err
	case code != http.StatusOK:
		return "", fmt.Errorf("GET /v1/grammars/%s: %d", id, code)
	case string(body) != job.want:
		return "", fmt.Errorf("stored grammar %s is not served as %s", id, job.wantSrc)
	}
	return id, nil
}

// finish settles correctness. An untraced run reports the share of
// operations that succeeded as success_rate.
func finish(res *Result, traced bool) *Result {
	if !traced {
		res.set("success_rate", 1-errorRate(res), "ratio")
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.Record["error_rate"] = errorRate(res)
	res.Record["attempted"] = res.Attempted
	res.Record["failed"] = res.Failed
	return res
}

func errorRate(r *Result) float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// spawnFloor times the stdin-oracle binary on empty input: the median of
// several sequential runs, in milliseconds. It is the floor under every
// exec-oracle query on the machine running the benchmark, at the time it
// runs.
func spawnFloor(ctx context.Context) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	o := &oracle.Exec{Argv: []string{self, stdinOracleArg, "regexp"}, Timeout: 10 * time.Second}
	var lat []float64
	for i := 0; i < 15; i++ {
		t := time.Now()
		v, err := o.Check(ctx, "")
		if err != nil {
			return 0, err
		}
		if v != oracle.Accept {
			return 0, fmt.Errorf("stdin oracle rejects the empty regexp (%v)", v)
		}
		lat = append(lat, float64(time.Since(t))/float64(time.Millisecond))
	}
	return median(lat), nil
}

// processCPU returns the user and system CPU time the process has used so
// far. On a virtual machine the guest kernel does not charge a process for
// the time the host steals from its vCPUs, so the CPU a journey costs
// holds steady where its wall time follows the host's load.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler tracks the live heap — the bytes a garbage collection found
// reachable — at each collection while it runs. Live heap, unlike
// allocated-but-unswept heap, does not depend on when collections happen.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak float64 // highest live heap seen, in MB
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
		var cycles uint64
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if c := s[0].Value.Uint64(); c != cycles {
				cycles = c
				h.peak = math.Max(h.peak, float64(s[1].Value.Uint64())/(1<<20))
			}
			select {
			case <-h.done:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the highest live heap seen, in MB.
func (h *heapSampler) stop() float64 {
	close(h.done)
	h.wg.Wait()
	return h.peak
}
