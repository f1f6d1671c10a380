package cluster

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fio"
	"repro/internal/sim"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "regenerate golden trace files")

// TestTracingDoesNotPerturbTiming is the overhead-discipline contract:
// a traced run must produce identical virtual-time results to an
// untraced one, because instrumentation only reads the clock and never
// sleeps, yields or schedules.
func TestTracingDoesNotPerturbTiming(t *testing.T) {
	spec := fio.JobSpec{
		Name: "perturb", Op: fio.RandRW, QueueDepth: 4,
		MaxIOs: 300, WarmupIOs: 10, RangeBlocks: 1 << 14, Seed: 99,
	}
	run := func(tr *trace.Tracer) *fio.Result {
		res, err := RunJob(OursRemote, ScenarioConfig{Tracer: tr}, spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off := run(nil)
	on := run(trace.New())
	if off.IOs != on.IOs {
		t.Errorf("IOs differ: off=%d on=%d", off.IOs, on.IOs)
	}
	if a, b := off.ReadLat.Sum(), on.ReadLat.Sum(); a != b {
		t.Errorf("read latency sums differ: off=%v on=%v", a, b)
	}
	if a, b := off.WriteLat.Sum(), on.WriteLat.Sum(); a != b {
		t.Errorf("write latency sums differ: off=%v on=%v", a, b)
	}
}

// TestTracingDoesNotPerturbNTBCounters extends the overhead discipline
// to the fabric's own counters: annotating a hop with its crossing count
// must not route a second transaction through an NTB adapter, which
// would bump Translations (and, under an injected stall or outage,
// SlowCrossings or LinkFaults) only on traced runs.
func TestTracingDoesNotPerturbNTBCounters(t *testing.T) {
	spec := fio.JobSpec{
		Name: "ntb-perturb", Op: fio.RandRW, QueueDepth: 4,
		MaxIOs: 200, WarmupIOs: 10, RangeBlocks: 1 << 14, Seed: 3,
	}
	type ntbCounters struct{ translations, slow, faults uint64 }
	run := func(tr *trace.Tracer) ntbCounters {
		var c ntbCounters
		err := RunWorkload(OursRemote, ScenarioConfig{Tracer: tr}, func(p *sim.Proc, env *Env) error {
			// Degrade every adapter for the first stretch of the workload
			// and drop the controller host's link briefly, so the
			// stall and outage counters move too.
			for _, h := range env.Cluster.Hosts {
				h.Adapter.InjectStall(500, 200_000)
				h.Adapter.InjectLinkDown(3_000)
			}
			_, err := fio.Run(p, env.Queue, spec)
			for _, h := range env.Cluster.Hosts {
				c.translations += h.Adapter.Translations
				c.slow += h.Adapter.SlowCrossings
				c.faults += h.Adapter.LinkFaults
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	off := run(nil)
	on := run(trace.New())
	if off.translations == 0 || off.slow == 0 || off.faults == 0 {
		t.Fatalf("scenario does not exercise every NTB counter: %+v", off)
	}
	if off != on {
		t.Errorf("NTB counters differ: untraced %+v, traced %+v", off, on)
	}
}

// TestBreakdownReconciles: on a real full-stack run, the client-stage
// partition sums exactly to end-to-end latency — the property that makes
// the breakdown table trustworthy.
func TestBreakdownReconciles(t *testing.T) {
	for _, s := range Scenarios() {
		s := s
		t.Run(string(s), func(t *testing.T) {
			tr := trace.New()
			spec := fio.JobSpec{
				Name: "reconcile", Op: fio.RandRW, QueueDepth: 8,
				MaxIOs: 120, WarmupIOs: 0, RangeBlocks: 1 << 14, Seed: 5,
			}
			if _, err := RunJob(s, ScenarioConfig{Tracer: tr}, spec); err != nil {
				t.Fatal(err)
			}
			bd := trace.ComputeBreakdown(tr.Spans())
			if bd.Spans < 120 {
				t.Fatalf("only %d spans recorded", bd.Spans)
			}
			sum, e2e := bd.ReconcileNs()
			if sum != e2e {
				t.Errorf("stage sum %d ns != end-to-end %d ns", sum, e2e)
			}
			if e2e <= 0 {
				t.Errorf("end-to-end total %d ns", e2e)
			}
		})
	}
}

// TestGoldenTrace pins the exact bytes of a small fixed-seed trace
// export. Any change to span content, ordering or the serialisation
// format shows up as a diff here (regenerate with -update).
func TestGoldenTrace(t *testing.T) {
	tr := trace.New()
	spec := fio.JobSpec{
		Name: "golden", Op: fio.RandRW, QueueDepth: 2,
		MaxIOs: 6, WarmupIOs: 0, RangeBlocks: 1 << 10, Seed: 11,
	}
	if _, err := RunJob(OursRemote, ScenarioConfig{Tracer: tr}, spec); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	meta := map[string]string{"scenario": string(OursRemote), "seed": "11"}
	if err := trace.WriteChrome(&buf, tr.Spans(), meta); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.ValidateChrome(buf.Bytes()); err != nil {
		t.Fatalf("golden trace fails validation: %v", err)
	}
	golden := filepath.Join("testdata", "golden_trace.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace differs from golden (%d vs %d bytes); run with -update and inspect the diff",
			buf.Len(), len(want))
	}
}

// TestCoalescingCounters asserts the effectiveness counters' defining
// property: QD1 has no bursts so nothing can be saved; QD8 must save
// both SQ doorbells and CQ rings.
func TestCoalescingCounters(t *testing.T) {
	run := func(qd int) (sqSaved, cqSaved uint64) {
		spec := fio.JobSpec{
			Name: "coalesce", Op: fio.RandRead, QueueDepth: qd,
			MaxIOs: 200, WarmupIOs: 0, RangeBlocks: 1 << 14, Seed: 3,
		}
		err := RunWorkload(OursRemote, ScenarioConfig{}, func(p *sim.Proc, env *Env) error {
			if _, err := fio.Run(p, env.Queue, spec); err != nil {
				return err
			}
			qv := env.Client.QueueView()
			sqSaved, cqSaved = qv.SQDoorbellsSaved, qv.CQRingsSaved
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return sqSaved, cqSaved
	}
	if sq, cq := run(1); sq != 0 || cq != 0 {
		t.Errorf("QD1: saved counters must be zero, got sq=%d cq=%d", sq, cq)
	}
	if sq, cq := run(8); sq == 0 || cq == 0 {
		t.Errorf("QD8: expected nonzero savings, got sq=%d cq=%d", sq, cq)
	}
}
