package main

import (
	"context"
	"math"
	"runtime"
	"runtime/debug"
	"time"

	"glade/internal/cfg"
)

// measure holds one run's booted node and what its journeys recorded.
type measure struct {
	c       Config
	w       workload
	job     learnJob
	n       *node
	rec     *recorder
	res     *Result
	gid     string
	corp    *corpus
	batches []batch

	spawnFloorMS float64

	learnUntraced []learnSample
	learnTraced   []tracedLearn
	checkUntraced checkRun
	checkTraced   checkRun
}

// tracedLearn is one traced learn journey with the service's own report
// of the job and the library replay of the same learn.
type tracedLearn struct {
	smp learnSample
	row jobStatsRow
	rp  replay
}

// learns measures the learn journey for d; a traced run gives the first
// half to untraced learns and the second to traced ones.
func (m *measure) learns(d time.Duration) {
	if !m.c.Trace {
		m.learnUntraced = append(m.learnUntraced, m.learnLoop(d)...)
		return
	}
	m.learnUntraced = append(m.learnUntraced, m.learnLoop(d/2)...)
	m.tracedLearns(d / 2)
}

// learnLoop runs untraced learns back to back until d has passed (at least
// one).
func (m *measure) learnLoop(d time.Duration) []learnSample {
	var out []learnSample
	start := time.Now()
	for len(out) == 0 || time.Since(start) < d {
		s := learnOnce(m.n, m.job, nil, false)
		m.res.addLearn(s)
		out = append(out, s)
		if !s.ok {
			break
		}
	}
	return out
}

// tracedLearns runs traced learns until d has passed (at least one), each
// followed by a read of the job's spans and stats and a library replay.
// The replay must learn the fetched grammar exactly.
func (m *measure) tracedLearns(d time.Duration) {
	start := time.Now()
	for len(m.learnTraced) == 0 || time.Since(start) < d {
		s := learnOnce(m.n, m.job, m.rec, true)
		m.res.addLearn(s)
		if !s.ok {
			return
		}
		m.res.Attempted++
		row, err := jobDetail(m.n, s, m.rec)
		if err != nil {
			m.res.fail(1, err.Error())
			return
		}
		rp, err := replayLearn(context.Background(), m.job, m.rec, s.trace)
		switch {
		case err != nil:
			m.res.fail(1, "replay: "+err.Error())
			return
		case rp.grammar != s.grammar:
			m.res.fail(1, "library replay learned a different grammar than job "+s.id)
			return
		}
		m.learnTraced = append(m.learnTraced, tracedLearn{smp: s, row: row, rp: rp})
	}
}

// checkSettle is how long check traffic runs unmeasured before a check
// phase: the first seconds after setup or after a learn phase show the
// runtime settling (collector pacing, returning memory to the OS), not
// the steady state of the check path.
const checkSettle = 2 * time.Second

// checks measures the check journey for d after checkSettle of unmeasured
// traffic; a traced run gives the first half of d to untraced checks and
// the second to traced ones.
func (m *measure) checks(d time.Duration) {
	run := func(d time.Duration, seed int64, traced bool) checkRun {
		r := runChecks(m.n, m.gid, m.corp, m.batches, clients(), d, 0, seed, m.rec, traced)
		m.res.addChecks(r)
		return r
	}
	run(checkSettle, m.c.Seed*29, false)
	if !m.c.Trace {
		m.checkUntraced = run(d, m.c.Seed*31, false)
		return
	}
	m.checkUntraced = run(d/2, m.c.Seed*31, false)
	m.checkTraced = run(d/2, m.c.Seed*37, true)
}

// endToEnd sets the metrics a user of glade-serve sees.
func (m *measure) endToEnd(setupTimes []float64) {
	r := m.res
	learns := okLearns(m.learnUntraced)
	r.set("learn_cpu_s", median(each(learns, func(s learnSample) float64 { return s.cpu.Seconds() })), "s")
	r.set("oracle_queries", median(each(learns, func(s learnSample) float64 { return float64(s.stats.OracleQueries) })), "count")
	checks := &m.checkUntraced
	r.set("check_p50_ms", checks.all.quantile(0.5), "ms")
	r.set("check_cpu_us_per_input", checks.cpuPerInput(), "us")
	r.set("setup_s", median(setupTimes), "s")
	r.Record["samples"] = map[string]any{
		"learn_s": len(learns), "learn_cpu_s": len(learns), "oracle_queries": len(learns),
		"check_p50_ms": checks.all.n, "check_p99_ms": checks.all.n, "check_inputs_per_s": checks.all.n,
		"check_cpu_us_per_input": checks.inputs, "setup_s": len(setupTimes), "success_rate": r.Attempted,
	}
	// The wall-clock figures a user sees, recorded beside the bounded
	// metrics: on a virtual machine they follow the share of time the host
	// steals (see layers).
	r.Record["learn_s"] = learnSeconds(learns)
	r.Record["check_inputs_per_s"] = checks.inputsPerSecond()
	r.Record["check_p99_ms"] = checks.tail()
	r.Record["check_p99_quantile"] = tailQuantile(checks.all.n)
}

// The heap rounds: how many heapPeak runs, and the collector's GOGC while
// they run.
const (
	heapRounds    = 5
	heapGCPercent = 10
)

// heapPeak sets heap_peak_mb, the memory a node needs for its journeys:
// the highest live heap over one learn journey followed by one pass over
// the check batches, median over heapRounds such rounds. They run on the
// node as set-up left it, before the timed phases: after them the node
// holds every job record of the run, and how many jobs fit in the run
// follows the machine's speed. The live heap is known only at a
// collection, so the rounds run at GOGC=heapGCPercent, where a collection
// comes every 10% of heap growth and the peak found is within about that
// of the true one. At the default GOGC=100 a learn sees a handful of
// collections, and the peak they find swung between runs by a quarter.
func (m *measure) heapPeak() {
	defer debug.SetGCPercent(debug.SetGCPercent(heapGCPercent))
	var peaks []float64
	for k := 0; k < heapRounds; k++ {
		runtime.GC()
		h := startHeapSampler()
		m.res.addLearn(learnOnce(m.n, m.job, nil, false))
		m.res.addChecks(runChecks(m.n, m.gid, m.corp, m.batches, clients(), time.Minute, m.c.WarmBatches, m.c.Seed+int64(k), nil, false))
		peaks = append(peaks, h.stop())
	}
	m.res.set("heap_peak_mb", median(peaks), "MB")
	m.res.Record["heap_peaks_mb"] = peaks
}

// learnSeconds is the median learn journey's wall time in seconds.
func learnSeconds(learns []learnSample) float64 {
	return median(each(learns, func(s learnSample) float64 { return s.total.Seconds() }))
}

func okLearns(ss []learnSample) []learnSample {
	var out []learnSample
	for _, s := range ss {
		if s.ok {
			out = append(out, s)
		}
	}
	return out
}

// layers sets the per-layer metrics of a traced run, with the tracing
// overhead, the split check, and the isolation check.
func (m *measure) layers() {
	r := m.res
	tl := m.learnTraced
	med := func(f func(tracedLearn) float64) float64 { return median(each(tl, f)) }
	msOf := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

	// Learner, from the library replays and the job's own stats.
	for _, ph := range []string{"seeds", "phase1", "chargen", "phase2", "finalize"} {
		r.set("core."+ph+"_ms", med(func(t tracedLearn) float64 { return msOf(t.rp.phases[ph]) }), "ms")
	}
	selfS := med(func(t tracedLearn) float64 { return (t.rp.wall - t.rp.oracleWall).Seconds() })
	r.set("core.self_s", selfS, "s")
	r.set("core.alloc_mb", med(func(t tracedLearn) float64 { return float64(t.rp.allocBytes) / (1 << 20) }), "MB")
	r.set("core.checks", med(func(t tracedLearn) float64 { return float64(t.smp.stats.Checks) }), "count")
	r.set("core.discarded_checks", med(func(t tracedLearn) float64 { return float64(t.smp.stats.DiscardedChecks) }), "count")
	r.set("core.cache_hit_rate", med(func(t tracedLearn) float64 {
		st := t.smp.stats
		return float64(st.CacheHits) / float64(st.CacheHits+st.OracleQueries)
	}), "ratio")
	r.set("core.waves", med(func(t tracedLearn) float64 { return float64(t.smp.stats.Waves) }), "count")
	seq := m.sequentialQueries()
	r.set("core.speculation_hit_rate", med(func(t tracedLearn) float64 {
		return float64(seq) / float64(t.smp.stats.OracleQueries)
	}), "ratio")

	// Oracle: the job's own query stats, and exact per-query latencies from
	// the replay's timing wrapper.
	busyS := med(func(t tracedLearn) float64 { return t.row.MeanLatencyMS * float64(t.row.OracleQueries) / 1e3 })
	r.set("oracle.busy_s", busyS, "s")
	var qlat []time.Duration
	for _, t := range tl {
		qlat = append(qlat, t.rp.latencies...)
	}
	r.set("oracle.p50_us", median(us(qlat)), "us")
	r.set("oracle.p99_us", quantile(us(qlat), tailQuantile(len(qlat))), "us")
	r.set("oracle.concurrency", med(func(t tracedLearn) float64 {
		return t.row.MeanLatencyMS * float64(t.row.OracleQueries) / t.row.OracleWallMS
	}), "ratio")
	r.set("oracle.retries", m.retries(), "count")
	r.set("oracle.spawn_floor_ms", m.spawnFloorMS, "ms")

	// Service hops of the learn journey.
	r.set("service.job_overhead_s", med(func(t tracedLearn) float64 { return (t.smp.run - t.rp.wall).Seconds() }), "s")
	submit := med(func(t tracedLearn) float64 { return msOf(t.smp.submit) })
	queue := med(func(t tracedLearn) float64 { return msOf(t.smp.queue) })
	run := med(func(t tracedLearn) float64 { return msOf(t.smp.run) })
	lag := med(func(t tracedLearn) float64 { return msOf(t.smp.lag) })
	fetch := med(func(t tracedLearn) float64 { return msOf(t.smp.fetch) })
	r.set("service.submit_ms", submit, "ms")
	r.set("service.queue_ms", queue, "ms")
	r.set("service.finish_lag_ms", lag, "ms")
	r.set("service.fetch_ms", fetch, "ms")

	// Wall-clock journey figures of the untraced halves. On a virtual
	// machine they follow the share of time the host steals from its
	// vCPUs, which can drift between a few percent and half within minutes
	// on a shared 2-vCPU VM, so they are reported here, without a bound,
	// and the bounded end-to-end metrics count CPU time instead.
	r.set("learn_s", learnSeconds(okLearns(m.learnUntraced)), "s")
	r.set("check_inputs_per_s", m.checkUntraced.inputsPerSecond(), "1/s")
	r.set("check_p99_ms", m.checkUntraced.tail(), "ms")

	// Check journey: client, router, handler from the wrappers; store and
	// ladder out of band.
	cs := m.checkTraced.traced
	cmed := func(f func(checkSample) float64) float64 { return median(each(cs, f)) }
	usOf := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	handler := cmed(func(s checkSample) float64 { return usOf(s.handler) })
	ladder := cmed(func(s checkSample) float64 { return usOf(s.ladder) })
	handlerSelf := cmed(func(s checkSample) float64 { return usOf(s.handler - s.ladder) })
	routerSelf := cmed(func(s checkSample) float64 { return usOf(s.router - s.handler) })
	wire := cmed(func(s checkSample) float64 { return usOf(s.client - s.router) })
	client := cmed(func(s checkSample) float64 { return usOf(s.client) })
	r.set("service.handler_us", handler, "us")
	r.set("service.handler_self_us", handlerSelf, "us")
	r.set("cluster.router_self_us", routerSelf, "us")
	r.set("net.wire_us", wire, "us")
	r.set("cfg.batch_us", ladder, "us")
	r.set("cfg.ns_per_input", ladder*1e3/batchSize, "ns")
	var rungs [3]int
	for _, s := range cs {
		for i := range rungs {
			rungs[i] += s.rungs[i]
		}
	}
	total := float64(len(cs) * batchSize)
	r.set("cfg.dfa_reject_share", float64(rungs[cfg.RungDFA])/total, "ratio")
	r.set("cfg.vm_share", float64(rungs[cfg.RungVM])/total, "ratio")
	r.set("cfg.earley_share", float64(rungs[cfg.RungEarley])/total, "ratio")
	r.set("store.compiled_us", cmed(func(s checkSample) float64 { return usOf(s.store) }), "us")

	// Tracing overhead: traced minus untraced end to end, per journey.
	learnTraced := median(each(tl, func(t tracedLearn) float64 { return msOf(t.smp.total) }))
	learnPlain := median(each(okLearns(m.learnUntraced), func(s learnSample) float64 { return msOf(s.total) }))
	learnOverhead := learnTraced - learnPlain
	checkPlain := m.checkUntraced.all.quantile(0.5) * 1e3
	checkOverhead := client - checkPlain
	r.set("trace.learn_overhead_ms", learnOverhead, "ms")
	r.set("trace.check_overhead_us", checkOverhead, "us")

	// The split: per-layer medians summed against the traced end-to-end
	// median. A learn's parts are its hops plus the job's run (which the
	// replay splits into learner, oracle, and service overhead); a check's
	// are wire, router, handler, and ladder. Medians of skewed parts need
	// not add up exactly, so the sum must land within the tracing overhead
	// plus half the end-to-end interquartile range.
	learnResid := submit + queue + run + lag + fetch - learnTraced
	checkResid := wire + routerSelf + handlerSelf + ladder - client
	r.set("split.learn_residual_ms", learnResid, "ms")
	r.set("split.check_residual_us", checkResid, "us")
	halfIQR := func(xs []float64) float64 { return (quantile(xs, 0.75) - quantile(xs, 0.25)) / 2 }
	r.Record["split"] = map[string]any{
		"learn_within_overhead": math.Abs(learnResid) <= math.Abs(learnOverhead)+
			halfIQR(each(tl, func(t tracedLearn) float64 { return msOf(t.smp.total) })),
		"check_within_overhead": math.Abs(checkResid) <= math.Abs(checkOverhead)+
			halfIQR(each(cs, func(s checkSample) float64 { return usOf(s.client) })),
	}

	// Isolation: the layers the workload was chosen for, each as a share
	// of the end-to-end time it should dominate (or not).
	shares := map[string]float64{"core": selfS / (learnTraced / 1e3), "cfg": ladder / handler}
	r.set("isolation.core_share", shares["core"], "ratio")
	r.set("isolation.cfg_share", shares["cfg"], "ratio")
	var iso []map[string]any
	for _, c := range m.w.isolation {
		iso = append(iso, map[string]any{"layer": c.layer, "share": shares[c.layer],
			"above_half": c.above, "holds": (shares[c.layer] > 0.5) == c.above})
	}
	r.Record["isolation"] = iso
	r.Record["samples"] = map[string]any{
		"traced_learns": len(tl), "untraced_learns": len(m.learnUntraced),
		"traced_checks": len(cs), "untraced_checks": m.checkUntraced.all.n,
		"oracle_queries_timed": len(qlat),
	}
}

// sequentialQueries is the number of oracle queries the job's learn needs
// at Workers=1. Every workload's job learns at Workers=1, so it is the
// job's own count.
func (m *measure) sequentialQueries() int {
	if len(m.learnTraced) == 0 {
		return 0
	}
	return m.learnTraced[0].smp.stats.OracleQueries
}

// retries sums the service's oracle retry counters.
func (m *measure) retries() float64 {
	total := 0.0
	for _, p := range m.n.srv.Registry().Snapshot() {
		if p.Name == "glade_oracle_retries_total" {
			total += p.Value
		}
	}
	return total
}
