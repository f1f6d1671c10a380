package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// runSeconds is BENCHMARK.json's run_seconds: the measuring time of one
// run.
const runSeconds = 30

// rep is one repetition: every topology of the workload, in order.
type rep []*topoRun

func runRep(w workload, s sizing, seed int64, traced bool) (rep, error) {
	var r rep
	for _, t := range w.topos(s) {
		tr, err := runTopo(t, seed, traced)
		if err != nil {
			return nil, err
		}
		r = append(r, tr)
	}
	return r, nil
}

func (r rep) sum(f func(*topoRun) float64) float64 {
	var x float64
	for _, t := range r {
		x += f(t)
	}
	return x
}

func (r rep) ios() float64 { return r.sum(func(t *topoRun) float64 { return float64(t.facts.ios) }) }

func (r rep) hostUsPerIO() float64 {
	return r.sum(func(t *topoRun) float64 { return t.window.Seconds() }) * 1e6 / r.ios()
}

func (r rep) ms(f func(*topoRun) time.Duration) float64 {
	return r.sum(func(t *topoRun) float64 { return f(t).Seconds() * 1e3 })
}

// sameFacts reports the first topology whose virtual-time facts differ
// and, with all, whose model counters or trace stage sums differ.
func sameFacts(a, b rep, all bool) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d topologies against %d", len(a), len(b))
	}
	for i := range a {
		if a[i].facts != b[i].facts {
			return fmt.Errorf("topology %d: facts %+v against %+v", i, a[i].facts, b[i].facts)
		}
		if !all {
			continue
		}
		if a[i].ctr != b[i].ctr {
			return fmt.Errorf("topology %d: counters %+v against %+v", i, a[i].ctr, b[i].ctr)
		}
		if a[i].stages != b[i].stages {
			return fmt.Errorf("topology %d: stage sums %+v against %+v", i, a[i].stages, b[i].stages)
		}
	}
	return nil
}

// counterDrift lists the model counters a traced repetition reads
// differently from an untraced one. Tracing may touch counters (the
// tracer's crossing lookups resolve addresses through the NTB), but
// never virtual time.
func counterDrift(u, t rep) []string {
	var out []string
	for i := range u {
		if u[i].ctr != t[i].ctr {
			out = append(out, fmt.Sprintf("topology %d: untraced %+v traced %+v", i, u[i].ctr, t[i].ctr))
		}
	}
	return out
}

// fig10Paper are the §VI minimum-latency deltas in µs: read NVMe-oF vs
// local, read ours remote vs local, write NVMe-oF vs local, write ours
// remote vs local.
var fig10Paper = [4]float64{7.7, 1, 7.5, 2}

// fig10Windows are the acceptance windows internal/cluster's scenario
// tests hold the same deltas to.
var fig10Windows = [4][2]float64{{6.9, 8.5}, {0.6, 1.6}, {6.7, 8.3}, {1.4, 3.0}}

// fig10DeltaErr is the largest absolute error of the four deltas
// against the paper's.
func fig10DeltaErr(d [4]float64) float64 {
	var e float64
	for i := range d {
		e = math.Max(e, math.Abs(d[i]-fig10Paper[i]))
	}
	return e
}

// fig10Deltas computes the deltas from paper-qd1's topologies (reads
// then writes, each in cluster.Scenarios order: linux-local,
// nvmeof-remote, ours-local, ours-remote).
func fig10Deltas(r rep) [4]float64 {
	m := func(i int) float64 { return r[i].facts.fioMin / 1000 }
	return [4]float64{m(1) - m(0), m(3) - m(2), m(5) - m(4), m(7) - m(6)}
}

func median(xs []float64) float64 { return quantiles(xs)[1] }

// quantiles returns the quartiles of xs as Python's
// statistics.quantiles(xs, n=4) computes them (exclusive method); a
// single value is its own quartiles.
func quantiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func perRep(rs []rep, f func(rep) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

// result is one benchmark run's outcome.
type result struct {
	correct           bool
	attempted, failed int
	metrics           map[string]float64
}

// bench runs workload w for about seconds of measuring time, writing a
// human-readable report to out. With traced it reports the per-layer
// metrics, otherwise the end-to-end ones.
func bench(w workload, s sizing, seed int64, seconds float64, traced bool, out io.Writer) (result, error) {
	res := result{correct: true, metrics: map[string]float64{}}
	fail := func(format string, args ...any) {
		res.correct = false
		fmt.Fprintf(out, "FAIL: "+format+"\n", args...)
	}
	// One discarded repetition first, so every measured set-up reuses
	// heap the way a long-running process does.
	if _, err := runRep(w, s, seed, false); err != nil {
		return res, err
	}
	collect := func(traced bool, until time.Time, atLeast int) ([]rep, error) {
		var rs []rep
		for len(rs) < atLeast || time.Now().Before(until) {
			r, err := runRep(w, s, seed, traced)
			if err != nil {
				return nil, err
			}
			rs = append(rs, r)
			fmt.Fprintf(out, "rep %d traced=%v: setup %.4f s, %.3f us/io, %d GCs in windows\n", len(rs), traced,
				r.ms(func(t *topoRun) time.Duration { return t.setup })/1e3, r.hostUsPerIO(),
				int(r.sum(func(t *topoRun) float64 { return float64(t.rt.gcs) })))
			for _, t := range r {
				res.attempted += t.facts.ios + t.facts.errs
				res.failed += t.facts.errs
			}
		}
		return rs, nil
	}
	start := time.Now()
	end := start.Add(time.Duration(seconds * float64(time.Second)))
	untracedEnd := end
	if traced {
		untracedEnd = start.Add(end.Sub(start) / 2)
	}
	u, err := collect(false, untracedEnd, 3)
	if err != nil {
		return res, err
	}
	var tr []rep
	if traced {
		if tr, err = collect(true, end, 2); err != nil {
			return res, err
		}
	}

	if res.failed > 0 {
		fail("%d of %d IOs failed", res.failed, res.attempted)
	}
	for i, r := range u[1:] {
		if err := sameFacts(u[0], r, true); err != nil {
			fail("repetition %d diverges from repetition 0: %v", i+1, err)
		}
	}
	for i, r := range tr {
		if err := sameFacts(u[0], r, false); err != nil {
			fail("traced repetition %d diverges from the untraced run: %v", i, err)
		}
		if err := sameFacts(tr[0], r, true); err != nil {
			fail("traced repetition %d diverges from traced repetition 0: %v", i, err)
		}
	}
	if len(tr) > 0 {
		for _, d := range counterDrift(u[0], tr[0]) {
			fmt.Fprintf(out, "note: tracing changes model counters (not virtual time): %s\n", d)
		}
	}
	fmt.Fprintf(out, "repetitions: %d untraced, %d traced, %.1f s\n", len(u), len(tr), time.Since(start).Seconds())

	r0 := u[0]
	if w.fig10 {
		d := fig10Deltas(r0)
		fmt.Fprintf(out, "fig10 min-latency deltas (us): read nvmeof %.3f ours %.3f, write nvmeof %.3f ours %.3f; fig10_delta_err_us %.4f\n",
			d[0], d[1], d[2], d[3], fig10DeltaErr(d))
		for i, win := range fig10Windows {
			if d[i] < win[0] || d[i] > win[1] {
				fail("fig10 delta %d = %.3f us outside [%.1f, %.1f]", i, d[i], win[0], win[1])
			}
		}
	}
	fmt.Fprintf(out, "failed_frac %.6f (%d of %d IOs)\n", float64(res.failed)/float64(res.attempted), res.failed, res.attempted)

	if !traced {
		lat := r0[w.primary].lat
		e2e := map[string][]float64{
			"setup_s":        perRep(u, func(r rep) float64 { return r.ms(func(t *topoRun) time.Duration { return t.setup }) / 1e3 }),
			"host_us_per_io": perRep(u, rep.hostUsPerIO),
			"live_heap_mib": perRep(u, func(r rep) float64 {
				var m uint64
				for _, t := range r {
					m = max(m, t.liveHeap)
				}
				return float64(m) / (1 << 20)
			}),
			"virt_p50_us": {lat.Percentile(50) / 1000},
			"virt_p99_us": {lat.Percentile(99) / 1000},
			"virt_kiops":  {r0.ios() / (r0.sum(func(t *topoRun) float64 { return float64(t.facts.virtNs) }) / 1e6)},
		}
		fmt.Fprintf(out, "virtual latency sample: %d IOs\n", lat.Count())
		for _, m := range endToEnd {
			q := quantiles(e2e[m.Name])
			res.metrics[m.Name] = q[1]
			fmt.Fprintf(out, "%-16s %12.4f %-6s q1 %.4f q3 %.4f (n=%d)\n", m.Name, q[1], m.Unit, q[0], q[2], len(e2e[m.Name]))
		}
		return res, nil
	}

	win := perLayer(res.metrics, w, u, tr)
	for _, m := range perLayerDefs() {
		fmt.Fprintf(out, "%-28s %14.4f %s\n", m.Name, res.metrics[m.Name], m.Unit)
	}
	var names []string
	for k := range win {
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool { return win[names[i]] > win[names[j]] })
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, " %s=%.3f", k, win.share(k))
	}
	fmt.Fprintf(out, "cpu profile of traced windows (%d samples):%s\n", win.total(), b.String())
	return res, nil
}

// perLayer fills m with the per-layer metrics: counts from the untraced
// repetitions u, profile shares, trace stages and call timings from the
// traced repetitions tr. It returns the pooled window profile.
func perLayer(m map[string]float64, w workload, u, tr []rep) layerSamples {
	r0 := u[0]
	ios := r0.ios()
	ctr := func(f func(counters) uint64) float64 {
		return r0.sum(func(t *topoRun) float64 { return float64(f(t.ctr)) })
	}
	events := ctr(func(c counters) uint64 { return c.events })
	m["sim.events_per_io"] = events / ios
	m["sim.ns_per_event"] = median(perRep(u, func(r rep) float64 {
		return r.sum(func(t *topoRun) float64 { return float64(t.window.Nanoseconds()) }) /
			r.sum(func(t *topoRun) float64 { return float64(t.ctr.events) })
	}))
	m["cluster.build_ms"] = median(perRep(u, func(r rep) float64 { return r.ms(func(t *topoRun) time.Duration { return t.build }) }))
	m["core.bringup_ms"] = median(perRep(u, func(r rep) float64 { return r.ms(func(t *topoRun) time.Duration { return t.bringup }) }))
	m["pcie.tlps_per_io"] = ctr(func(c counters) uint64 { return c.tlps }) / ios
	m["pcie.bytes_per_io"] = ctr(func(c counters) uint64 { return c.bytes }) / ios
	m["pcie.crossings_per_io"] = ctr(func(c counters) uint64 { return c.crossings }) / ios
	m["ntb.translations_per_io"] = ctr(func(c counters) uint64 { return c.translations }) / ios
	m["nvme.fetches_per_io"] = ctr(func(c counters) uint64 { return c.fetches }) / ios
	m["nvme.sq_doorbells_per_io"] = ctr(func(c counters) uint64 { return c.sqDoorbells }) / ios
	m["nvme.ctrl_busy_frac"] = r0.sum(func(t *topoRun) float64 { return float64(t.ctr.ctrlBusyNs) }) /
		r0.sum(func(t *topoRun) float64 { return float64(t.facts.virtNs) })
	m["core.retries"] = ctr(func(c counters) uint64 { return c.retries })
	m["core.timeouts"] = ctr(func(c counters) uint64 { return c.timeouts })
	m["runtime.allocs_per_io"] = median(perRep(u, func(r rep) float64 {
		return r.sum(func(t *topoRun) float64 { return float64(t.rt.allocs) }) / r.ios()
	}))
	m["runtime.alloc_bytes_per_io"] = median(perRep(u, func(r rep) float64 {
		return r.sum(func(t *topoRun) float64 { return float64(t.rt.allocBytes) }) / r.ios()
	}))
	var gc, cpu float64
	for _, r := range u {
		gc += r.sum(func(t *topoRun) float64 { return t.rt.gcCPU })
		cpu += r.sum(func(t *topoRun) float64 { return t.rt.cpu })
	}
	m["runtime.gc_cpu_frac"] = 0
	if cpu > 0 {
		m["runtime.gc_cpu_frac"] = gc / cpu
	}
	m["trace.overhead_us_per_io"] = median(perRep(tr, rep.hostUsPerIO)) - median(perRep(u, rep.hostUsPerIO))

	win, setup := layerSamples{}, layerSamples{}
	var calls callStats
	for _, r := range tr {
		for _, t := range r {
			win.add(t.winProf)
			setup.add(t.setupProf)
			calls.n += t.calls.n
			calls.host += t.calls.host
			calls.virt += t.calls.virt
		}
	}
	for _, l := range hostShareLayers {
		m[l+".host_share"] = win.share(l)
	}
	m["runtime.sched_share"] = win.share("runtime")
	m["memory.setup_share"] = setup.share("memory")
	if calls.n > 0 {
		m["driver.host_us_per_call"] = calls.host.Seconds() * 1e6 / float64(calls.n)
		m["driver.virt_us_per_call"] = float64(calls.virt) / 1e3 / float64(calls.n)
	}
	st := tr[0][w.primary].stages
	for _, name := range traceStages {
		v := 0.0
		if st.spans > 0 {
			v = float64(st.total[indexOf(stageOrder, name)]) / float64(st.spans)
		}
		m["trace."+name+"_ns"] = v
	}
	return win
}
