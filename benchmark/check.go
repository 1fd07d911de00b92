package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"glade/internal/bytesets"
	"glade/internal/cfg"
	"glade/internal/fuzz"
)

// batchSize is the number of inputs in one POST /v1/grammars/{id}/check.
const batchSize = 32

// The check corpus: corpusSize distinct inputs drawn from corpusSeed, each
// sent in batchRounds of the run's batches.
const (
	corpusSize  = 1024
	corpusSeed  = 1
	batchRounds = 8
)

// clients is the closed-loop check client count: one per CPU. With a
// single client the node's CPUs idle between requests, and on a virtual
// machine the wake-ups that follow put milliseconds into the latency tail.
func clients() int { return runtime.NumCPU() }

// corpus is a workload's check corpus: members drawn with the grammar's
// sampler, mixed half and half with single-byte mutations of them from the
// naive fuzzer, and the verdict of each input under the independent
// map-based cfg.Parser. A few mutants cost the ladder thousands of times
// the median input, so the corpus is drawn from one fixed seed: every run
// checks the same mix, slow inputs included, and the run's seed only
// decides how the inputs are grouped into batches and in which order the
// clients send them.
type corpus struct {
	inputs []string
	want   []bool
	// Shares of the corpus accepted, and decided by each ladder rung.
	acceptShare float64
	rungShare   [3]float64 // indexed by cfg.Rung
}

// buildCorpus draws size inputs for g from seed.
func buildCorpus(g *cfg.Grammar, seed int64, size int) *corpus {
	rng := rand.New(rand.NewSource(seed))
	sampler := cfg.NewSampler(g, cfg.DefaultSampleDepth)
	members := make([]string, size/2)
	for i := range members {
		members[i] = sampler.Sample(rng)
	}
	var alphabet []byte
	for b := 0; b < 256; b++ {
		if bytesets.PrintableWS().Has(byte(b)) {
			alphabet = append(alphabet, byte(b))
		}
	}
	naive := fuzz.NewNaive(members, alphabet)
	c := &corpus{inputs: append([]string(nil), members...)}
	for len(c.inputs) < size {
		c.inputs = append(c.inputs, naive.Next(rng))
	}

	parser := cfg.NewParser(g)
	comp := cfg.Compile(g)
	c.want = make([]bool, size)
	accepted := 0
	var rungs [3]int
	for i, in := range c.inputs {
		c.want[i] = parser.Accepts(in)
		if c.want[i] {
			accepted++
		}
		_, r := comp.AcceptsRung(in)
		rungs[r]++
	}
	c.acceptShare = float64(accepted) / float64(size)
	for r := range rungs {
		c.rungShare[r] = float64(rungs[r]) / float64(size)
	}
	return c
}

// batch is one pre-encoded check request: corpus indices and the JSON body.
type batch struct {
	idx  []int
	body []byte
}

// makeBatches deals the corpus into batches of batchSize, rounds times,
// each round over a fresh seeded shuffle: every input appears in exactly
// rounds batches, so any whole pass over the batches does the same work.
func makeBatches(c *corpus, seed int64, rounds int) []batch {
	rng := rand.New(rand.NewSource(seed))
	var out []batch
	for r := 0; r < rounds; r++ {
		perm := rng.Perm(len(c.inputs))
		for lo := 0; lo+batchSize <= len(perm); lo += batchSize {
			idx := perm[lo : lo+batchSize]
			inputs := make([]string, batchSize)
			for j, i := range idx {
				inputs[j] = c.inputs[i]
			}
			body, err := json.Marshal(map[string][]string{"inputs": inputs})
			if err != nil {
				panic(err)
			}
			out = append(out, batch{idx: idx, body: body})
		}
	}
	return out
}

// checkSample is one traced check request split into its layers. The
// router and handler times come from the server-side wrappers; store and
// ladder are timed out of band on the same batch right after the response.
type checkSample struct {
	client, router, handler time.Duration
	store, ladder           time.Duration
	rungs                   [3]int
}

// checkRun is the outcome of one closed-loop check phase.
type checkRun struct {
	all       hist
	inputs    int // inputs given a (correct) verdict
	attempted int
	failed    int
	elapsed   time.Duration
	cpu       time.Duration // process CPU time over the phase
	traced    []checkSample
	firstErr  string
}

// tail is the run's tail latency in ms: the highest percentile up to p99
// with at least ten samples beyond it.
func (r *checkRun) tail() float64 { return r.all.quantile(tailQuantile(r.all.n)) }

// inputsPerSecond is the rate at which inputs were given a verdict.
func (r *checkRun) inputsPerSecond() float64 { return float64(r.inputs) / r.elapsed.Seconds() }

// cpuPerInput is the process CPU time spent per input verdicted, in µs:
// the node's and the load generator's together.
func (r *checkRun) cpuPerInput() float64 {
	return float64(r.cpu) / float64(time.Microsecond) / float64(r.inputs)
}

// record adds one successful request.
func (r *checkRun) record(lat time.Duration) {
	r.all.add(lat)
	r.inputs += batchSize
}

// runChecks drives clients closed-loop clients against POST
// /v1/grammars/{gid}/check for dur (or, when maxBatches > 0, until that
// many batches have been sent in total). Each response is compared with
// the corpus verdicts; a non-2xx status, a transport error, or any wrong
// verdict fails the request.
func runChecks(n *node, gid string, c *corpus, batches []batch, clients int, dur time.Duration, maxBatches int, seed int64, rec *recorder, traced bool) checkRun {
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		sent int
	)
	var run checkRun
	start, cpu0 := time.Now(), processCPU()
	deadline := start.Add(dur)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			// Each client walks the batches in order from its own seeded
			// starting point.
			next := rand.New(rand.NewSource(seed*7919 + int64(cl))).Intn(len(batches))
			for time.Now().Before(deadline) {
				mu.Lock()
				if maxBatches > 0 && sent >= maxBatches {
					mu.Unlock()
					break
				}
				sent++
				mu.Unlock()
				b := batches[next%len(batches)]
				next++
				var trace, root, tp string
				if traced {
					trace, root = newTrace()
					tp = traceparent(trace, root)
				}
				t0 := time.Now()
				code, out, err := n.do(http.MethodPost, "/v1/grammars/"+gid+"/check", b.body, tp)
				var resp struct {
					Verdicts []bool `json:"verdicts"`
				}
				if err == nil && code == http.StatusOK {
					err = json.Unmarshal(out, &resp)
				}
				lat := time.Since(t0)
				var smp checkSample
				msg := verdictError(c, b, code, resp.Verdicts, err)
				if msg == "" && traced {
					rec.add(span{Trace: trace, ID: root, Name: "check", Start: t0, DurNS: lat.Nanoseconds()})
					smp = traceCheck(n, gid, c, b, rec, trace, root, lat)
				}
				mu.Lock()
				run.attempted++
				switch {
				case msg != "":
					run.failed++
					if run.firstErr == "" {
						run.firstErr = msg
					}
				default:
					run.record(lat)
					if traced {
						run.traced = append(run.traced, smp)
					}
				}
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	run.elapsed = time.Since(start)
	run.cpu = processCPU() - cpu0
	return run
}

// verdictError describes why a check response is wrong, or returns "".
func verdictError(c *corpus, b batch, code int, verdicts []bool, err error) string {
	switch {
	case err != nil:
		return err.Error()
	case code != http.StatusOK:
		return fmt.Sprintf("check: status %d", code)
	case len(verdicts) != len(b.idx):
		return fmt.Sprintf("check: %d verdicts for %d inputs", len(verdicts), len(b.idx))
	}
	for j, i := range b.idx {
		if verdicts[j] != c.want[i] {
			return fmt.Sprintf("check: verdict %v for %q, the reference parser says %v", verdicts[j], c.inputs[i], c.want[i])
		}
	}
	return ""
}

// traceCheck completes one traced check: it reads the router and handler
// spans the wrappers recorded, then times the store lookup and the ladder
// on the same batch out of band, as children of the client span.
func traceCheck(n *node, gid string, c *corpus, b batch, rec *recorder, trace, root string, lat time.Duration) checkSample {
	smp := checkSample{client: lat}
	if s, ok := rec.find(trace, "router"); ok {
		smp.router = s.dur()
	}
	if s, ok := rec.find(trace, "handler"); ok {
		smp.handler = s.dur()
	}
	inputs := make([]string, len(b.idx))
	for j, i := range b.idx {
		inputs[j] = c.inputs[i]
	}
	t0 := time.Now()
	comp, err := n.srv.Store().Compiled(gid)
	smp.store = time.Since(t0)
	if err != nil {
		return smp
	}
	rec.add(span{Trace: trace, ID: randHex(8), Parent: root, Name: "store", Start: t0, DurNS: smp.store.Nanoseconds()})
	// The handler's own fan-out width for a batch of this size.
	workers := min(runtime.GOMAXPROCS(0), len(inputs)/16)
	t1 := time.Now()
	comp.AcceptsAll(inputs, workers)
	smp.ladder = time.Since(t1)
	for _, in := range inputs {
		_, r := comp.AcceptsRung(in)
		smp.rungs[r]++
	}
	rec.add(span{Trace: trace, ID: randHex(8), Parent: root, Name: "cfg", Start: t1, DurNS: smp.ladder.Nanoseconds(),
		Attrs: map[string]float64{"inputs": float64(len(inputs)), "dfa": float64(smp.rungs[cfg.RungDFA]),
			"vm": float64(smp.rungs[cfg.RungVM]), "earley": float64(smp.rungs[cfg.RungEarley])}})
	return smp
}
