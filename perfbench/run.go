package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/block"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fio"
	"repro/internal/nvme"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// counters are the model's public counters, summed over the topology.
type counters struct {
	events                 uint64 // sim.Kernel events dispatched
	tlps, bytes, crossings uint64 // pcie.Domain transactions
	translations           uint64 // ntb adapter LUT translations
	fetches, sqDoorbells   uint64 // nvme.Controller
	ctrlBusyNs             int64  // nvme.Controller busy virtual time
	retries, timeouts      uint64 // core.Client recovery
}

func readCounters(c *cluster.Cluster, ctrl *nvme.Controller, clients []*core.Client) counters {
	n := counters{
		events:      c.K.Executed(),
		fetches:     ctrl.Stats.Fetches,
		sqDoorbells: ctrl.Stats.SQDoorbellWrites,
		ctrlBusyNs:  ctrl.BusyOcc.BusyAsOf(c.K.Now()),
	}
	for _, h := range c.Hosts {
		st := h.Dom.Stats()
		n.tlps += st.PostedWrites + st.MMIOWrites + st.Reads
		n.bytes += st.BytesWritten + st.BytesRead
		n.crossings += st.Crossings
		n.translations += h.Adapter.Translations
	}
	for _, cl := range clients {
		n.retries += cl.Retries
		n.timeouts += cl.TimedOut
	}
	return n
}

func (a counters) sub(b counters) counters {
	return counters{
		events: a.events - b.events,
		tlps:   a.tlps - b.tlps, bytes: a.bytes - b.bytes, crossings: a.crossings - b.crossings,
		translations: a.translations - b.translations,
		fetches:      a.fetches - b.fetches, sqDoorbells: a.sqDoorbells - b.sqDoorbells,
		ctrlBusyNs: a.ctrlBusyNs - b.ctrlBusyNs,
		retries:    a.retries - b.retries, timeouts: a.timeouts - b.timeouts,
	}
}

// latFacts summarizes a virtual latency sample exactly.
type latFacts struct {
	n                  int
	min, p50, p99, max float64
}

func summarize(s *stats.Sample) latFacts {
	return latFacts{n: s.Count(), min: s.Min(), p50: s.Percentile(50), p99: s.Percentile(99), max: s.Max()}
}

// facts are one topology's virtual-time results in the window. They
// depend only on the code, the workload and the seed, so every
// repetition, traced or not, must reproduce them exactly.
type facts struct {
	ios, errs   int
	events      uint64
	virtNs      int64
	read, write latFacts
	// fioMin is the smallest fio-measured latency (the §VI statistic).
	fioMin float64
}

// stageOrder lists trace.ComputeBreakdown's stage names.
var stageOrder = []string{
	"submit", "data-in", "device", "reap", "data-out", "other",
	"sq-write", "sq-doorbell", "ntb-cross", "ctrl-fetch", "ctrl-decode",
	"medium", "data-xfer", "cq-post", "cq-poll",
}

// stageFacts are a traced window's per-stage virtual-time sums.
type stageFacts struct {
	spans int
	total [15]int64 // indexed like stageOrder
}

func stageTotals(tr *trace.Tracer) (stageFacts, error) {
	b := trace.ComputeBreakdown(tr.Spans())
	sf := stageFacts{spans: b.Spans}
	for _, st := range append(b.Stages, b.SubStages...) {
		i := indexOf(stageOrder, st.Stage)
		if i < 0 {
			return sf, fmt.Errorf("unknown trace stage %q", st.Stage)
		}
		sf.total[i] = st.TotalNs
	}
	return sf, nil
}

func indexOf(list []string, s string) int {
	for i, v := range list {
		if v == s {
			return i
		}
	}
	return -1
}

// rtStat is a runtime/metrics snapshot.
type rtStat struct {
	allocs, allocBytes, gcs uint64
	gcCPU, cpu              float64
}

var rtNames = []string{
	"/gc/heap/allocs:objects", "/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtStat {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtStat{
		allocs: s[0].Value.Uint64(), allocBytes: s[1].Value.Uint64(), gcs: s[2].Value.Uint64(),
		gcCPU: s[3].Value.Float64(), cpu: s[4].Value.Float64(),
	}
}

func (a rtStat) sub(b rtStat) rtStat {
	return rtStat{a.allocs - b.allocs, a.allocBytes - b.allocBytes, a.gcs - b.gcs, a.gcCPU - b.gcCPU, a.cpu - b.cpu}
}

// liveHeap forces a full GC and returns the bytes it found live.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// topoRun is one topology's measurements.
type topoRun struct {
	// setup is host time from the first constructor call until every
	// client's block queue exists; build the cluster.Build (or
	// cluster.New + AttachNVMe) part of it, bringup the core part.
	setup, build, bringup time.Duration
	window                time.Duration // host time of the measured jobs
	liveHeap              uint64        // bytes live after set-up
	facts                 facts
	ctr                   counters      // window deltas
	lat                   *stats.Sample // virtual latency sample (topo.latWrites)
	rt                    rtStat
	// Traced runs only.
	calls              callStats
	stages             stageFacts
	setupProf, winProf layerSamples
}

// runTopo builds t on a fresh cluster, warms it up and measures its jobs.
func runTopo(t topo, seed int64, traced bool) (r *topoRun, err error) {
	var prof profiler
	defer func() {
		if _, perr := prof.stop(); err == nil && perr != nil {
			err = perr
		}
	}()
	// Heap normalization: the previous topology is garbage by now, and
	// a full GC frees it, so set-up reuses that heap (and must clear
	// it), as in a long-running process. Returning the pages to the OS
	// instead made every later allocation in the window fault them in
	// again, which made host time noisier.
	runtime.GC()
	var tr *trace.Tracer
	if traced {
		tr = trace.New()
		if err := prof.start(); err != nil {
			return nil, err
		}
	}
	r = &topoRun{}
	t0 := time.Now()
	c, ctrl, err := build(t, seed, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: build: %w", t.stack, err)
	}
	r.build = time.Since(t0)
	var runErr error
	c.Go("perfbench", func(p *sim.Proc) { runErr = r.drive(p, t, seed, c, ctrl, tr, &prof, t0) })
	c.Run()
	if runErr != nil {
		return nil, fmt.Errorf("%s: %w", t.stack, runErr)
	}
	return r, nil
}

// drive runs inside the simulation: bring-up, warm-up, measured window.
func (r *topoRun) drive(p *sim.Proc, t topo, seed int64, c *cluster.Cluster, ctrl *nvme.Controller,
	tr *trace.Tracer, prof *profiler, t0 time.Time) error {
	drivers, clients, bringup, err := bringUp(p, t, c, ctrl, tr)
	if err != nil {
		return fmt.Errorf("bring-up: %w", err)
	}
	devs := make([]*device, len(drivers))
	qs := make([]*block.Queue, len(drivers))
	for i, d := range drivers {
		dev := &device{Device: d, blocks: d.Blocks()}
		if t.partBlocks > 0 {
			dev.base, dev.blocks = uint64(i)*t.partBlocks, t.partBlocks
			if dev.base+dev.blocks > d.Blocks() {
				return fmt.Errorf("partition %d beyond %d blocks", i, d.Blocks())
			}
		}
		devs[i] = dev
		qs[i] = block.NewQueue(c.K, dev, block.QueueParams{})
	}
	r.setup, r.bringup = time.Since(t0), bringup
	if r.setupProf, err = prof.stop(); err != nil {
		return err
	}
	r.liveHeap = liveHeap()

	warm, err := runJobs(p, qs, func(i int) []fio.JobSpec {
		s := t.warm
		s.Seed = jobSeed(seed, i, -1)
		return []fio.JobSpec{s}
	})
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	for _, rs := range warm {
		for _, res := range rs {
			if res.Errors > 0 {
				return fmt.Errorf("warm-up: %d failed IOs", res.Errors)
			}
		}
	}

	runtime.GC()
	lat := newLatencies()
	for _, d := range devs {
		d.lat = lat
	}
	if tr != nil {
		tr.Reset()
		for _, d := range devs {
			d.calls = &r.calls
		}
		if err := prof.start(); err != nil {
			return err
		}
	}
	ctr0, rt0 := readCounters(c, ctrl, clients), readRuntime()
	h0, v0 := time.Now(), p.Now()
	res, jobErr := runJobs(p, qs, func(i int) []fio.JobSpec {
		jobs := make([]fio.JobSpec, len(t.jobs))
		for j, s := range t.jobs {
			s.Seed = jobSeed(seed, i, j)
			jobs[j] = s
		}
		return jobs
	})
	r.window = time.Since(h0)
	virt := p.Now() - v0
	r.rt = readRuntime().sub(rt0)
	ctr := readCounters(c, ctrl, clients).sub(ctr0)
	for _, d := range devs {
		d.lat, d.calls = nil, nil
	}
	if tr != nil {
		if r.winProf, err = prof.stop(); err != nil {
			return err
		}
		if r.stages, err = stageTotals(tr); err != nil {
			return err
		}
	}
	if jobErr != nil {
		return jobErr
	}

	r.ctr = ctr
	f := facts{events: ctr.events, virtNs: virt, read: summarize(lat.read), write: summarize(lat.write)}
	for _, rs := range res {
		for _, x := range rs {
			f.ios += x.IOs
			f.errs += x.Errors
			for _, s := range []*stats.Sample{x.ReadLat, x.WriteLat} {
				if m := s.Min(); s.Count() > 0 && (f.fioMin == 0 || m < f.fioMin) {
					f.fioMin = m
				}
			}
		}
	}
	r.facts = f
	r.lat = lat.all
	if t.latWrites {
		r.lat = lat.write
	}
	return nil
}
