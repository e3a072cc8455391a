package main

import (
	"fmt"
	"math"
	"time"
)

func workloadName(warm bool) string {
	if warm {
		return "serve-warm"
	}
	return "serve-cold"
}

// checkServePass applies the per-pass correctness checks of a serve
// workload; ref is the first pass of the run.
func checkServePass(name string, i int, p, ref servePass, sessions int, warm bool, res *runResult) {
	res.check(p.converged == sessions, "%s: pass %d: %d of %d sessions converged", name, i, p.converged, sessions)
	res.check(p.digest == ref.digest, "%s: pass %d: best-point digest %x differs from %x", name, i, p.digest, ref.digest)
	res.check(p.failures() == 0, "%s: pass %d: %d refused and %d rejected measurements", name, i, p.refused, p.rejected)
	if warm {
		res.check(p.sent == 0, "%s: pass %d: %d client measurements in the warm phase", name, i, p.sent)
		res.check(p.obsAfter == p.obsBefore, "%s: pass %d: store went from %d to %d observations", name, i, p.obsBefore, p.obsAfter)
		res.check(p.sameBest, "%s: pass %d: warm sessions reached different best points", name, i)
		return
	}
	res.check(p.useful == ref.useful, "%s: pass %d: %d useful measurements, first pass had %d", name, i, p.useful, ref.useful)
	res.check(p.useful > 0, "%s: pass %d: no useful measurements", name, i)
}

// account adds a pass's operations to the run's attempted and failed
// counts: every call plus every measurement sent.
func account(p servePass, res *runResult) {
	res.attempted += p.calls + p.sent
	res.failed += p.failures()
}

// serveE2E runs a serve workload with tracing off: fresh set-up and a
// measured phase per pass, passes until the time budget is spent, and
// medians over passes.
func serveE2E(seed int64, warm bool, budget time.Duration, res *runResult) {
	name := workloadName(warm)
	sessions := coldSessions
	if warm {
		sessions = warmSessions
	}
	o := serveOpts{seed: seed, sessions: sessions, warm: warm, work: res.work}
	var passes []servePass
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start) < budget; i++ {
		p, err := runServePass(o)
		account(p, res)
		if err != nil {
			res.failed++
			res.check(false, "%s: pass %d: %v", name, i, err)
			return
		}
		passes = append(passes, p)
		checkServePass(name, i, p, passes[0], sessions, warm, res)
	}
	fmt.Fprintf(stderr, "%s: %d sessions/pass, %d useful measurements, %d idle fetches, %d calls, %d cache lookups in pass 0\n",
		name, sessions, passes[0].useful, passes[0].idle, passes[0].calls, passes[0].lookups)

	var setup, wall, rate, reports, rtt50, rtt99, conv50, conv90, alloc, heap []float64
	var rttN, convN tail
	for _, p := range passes {
		s := p.wall.Seconds()
		setup = append(setup, p.setup.Seconds())
		wall = append(wall, s)
		rate = append(rate, float64(p.converged)/s)
		if warm {
			reports = append(reports, float64(p.lookups)/s)
		} else {
			reports = append(reports, float64(p.useful)/s)
		}
		rttN = tailOf(p.rtts(), 0.99)
		convN = tailOf(p.converge, 0.90)
		rtt50 = append(rtt50, rttN.P50)
		rtt99 = append(rtt99, rttN.Tail)
		conv50 = append(conv50, convN.P50)
		conv90 = append(conv90, convN.Tail)
		alloc = append(alloc, p.allocMB)
		heap = append(heap, p.heapMB)
	}
	fmt.Fprintf(stderr, "%s: per pass %d round trips (p%.4g, %d beyond) and %d sessions (p%.4g, %d beyond)\n",
		name, rttN.N, 100*rttN.Q, rttN.Beyond, convN.N, 100*convN.Q, convN.Beyond)
	res.summary("setup_s", setup, "s")
	res.summary("wall_s", wall, "s")
	res.summary("sessions_per_s", rate, "1/s")
	res.summary("reports_per_s", reports, "1/s")
	res.summary("rtt_p50_us", rtt50, "us")
	res.summary("rtt_p99_us", rtt99, "us")
	res.summary("converge_p50_ms", conv50, "ms")
	res.summary("converge_p90_ms", conv90, "ms")
	res.summary("alloc_mb", alloc, "MB")
	res.summary("heap_live_mb", heap, "MB")
}

// serveTraced runs one untraced and one traced pass of a serve workload and
// reports its per-layer metrics, prefixed with the workload name.
func serveTraced(seed int64, warm bool, res *runResult) {
	name := workloadName(warm)
	sessions := coldTraceSessions
	if warm {
		sessions = warmTraceSessions
	}
	o := serveOpts{seed: seed, sessions: sessions, warm: warm, work: res.work}
	plain, err := runServePass(o)
	account(plain, res)
	if err != nil {
		res.check(false, "%s: untraced pass: %v", name, err)
		return
	}
	checkServePass(name, 0, plain, plain, sessions, warm, res)
	o.tr = newTracer()
	p, err := runServePass(o)
	account(p, res)
	if err != nil {
		res.check(false, "%s: traced pass: %v", name, err)
		return
	}
	checkServePass(name+" traced", 1, p, plain, sessions, warm, res)

	m := func(metric string, v float64, unit string) { res.metric(name+"."+metric, v, unit) }
	lt := collectLayers(o.tr.Spans())
	reg := tailOf(lt.dur["client.register"], 0.99)
	fetch := tailOf(lt.dur["client.fetchn"], 0.99)
	m("client.register_p50_us", reg.P50, "us")
	m("client.fetchn_p50_us", fetch.P50, "us")
	m("client.fetchn_p99_us", fetch.Tail, "us")
	if !warm {
		report := tailOf(lt.dur["client.reportn"], 0.99)
		m("client.reportn_p50_us", report.P50, "us")
		m("client.reportn_p99_us", report.Tail, "us")
		m("client.useful_ratio", float64(p.useful)/float64(p.sent), "ratio")
	}
	m("client.idle_fetches", float64(p.idle), "count")

	// Request-path stages, each as its total time per round trip, so they
	// add up to the mean round trip; the request span's self time is what
	// the kernel, loopback and scheduler took.
	rtNames := []string{"client.register", "client.fetchn", "client.reportn"}
	var rts int
	var rttTotal, netTotal float64
	for _, n := range rtNames {
		rts += lt.count(n)
		rttTotal += sum(lt.dur[n])
		netTotal += sum(lt.self[n])
	}
	perRT := func(span string) float64 { return sum(lt.dur[span]) / float64(rts) }
	stages := map[string]float64{
		"client.encode_us":     perRT("client.encode"),
		"wire.client_write_us": perRT("client.write"),
		"server.handle_us":     perRT("server.handle"),
		"wire.server_write_us": perRT("server.write"),
		"client.decode_us":     perRT("client.decode"),
		"net.loopback_us":      netTotal / float64(rts),
	}
	var stageSum float64
	for k, v := range stages {
		m(k, v, "us")
		stageSum += v
	}
	rttMean := rttTotal / float64(rts)
	gap := math.Abs(stageSum-rttMean) / rttMean
	m("request.rtt_mean_us", rttMean, "us")
	m("request.stage_sum_us", stageSum, "us")
	m("request.stage_gap_ratio", gap, "ratio")
	fmt.Fprintf(stderr, "%s: request-path stages sum to %.2f us against a mean round trip of %.2f us (gap %.2f%%, tolerance %.0f%%, %d round trips)\n",
		name, stageSum, rttMean, 100*gap, 100*stageTolerance, rts)
	res.check(gap <= stageTolerance, "%s: request-path stages are %.1f%% away from the round trip", name, 100*gap)
	m("wire.bytes_in_per_rt", float64(p.wire.bytesIn)/float64(rts), "bytes")
	m("wire.bytes_out_per_rt", float64(p.wire.bytesOut)/float64(rts), "bytes")
	m("wire.writes_per_rt", float64(p.wire.writes)/float64(rts), "count")

	inits := lt.count("session.init")
	m("session.init_us", mean(lt.self["session.init"]), "us")
	m("session.step_self_us", mean(lt.self["session.step"]), "us")
	m("session.eval_wait_us", mean(lt.dur["session.eval"]), "us")
	m("session.steps", float64(lt.count("session.step"))/float64(inits), "count")
	m("estimator.calls", float64(lt.count("estimator")), "count")
	m("estimator.ns", mean(lt.dur["estimator"])*1e3, "ns")
	if warm {
		look := tailOf(lt.dur["cache.lookup"], 0.99)
		res.metric("cache.lookup_p50_us", look.P50, "us")
		res.metric("cache.lookup_p99_us", look.Tail, "us")
		res.metric("cache.hit_ratio", float64(p.cacheHits)/float64(p.lookups), "ratio")
		res.metric("store.open_ms", p.openMS, "ms")
		res.metric("store.observations", float64(p.obsAfter), "count")
	}
	m("trace_overhead_s", p.wall.Seconds()-plain.wall.Seconds(), "s")
	m("fail_ratio", float64(plain.failures()+p.failures())/float64(plain.calls+plain.sent+p.calls+p.sent), "ratio")
	res.spans(name, o.tr)
}
