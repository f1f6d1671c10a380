package cluster

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/fio"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// TestRunnerDigests pins the encoded output of every scenario runner to
// the sha256 recorded in testdata/runner_digests.txt. The same-commit
// tests (traced vs untraced, GOMAXPROCS 1 vs 8) cannot see a change that
// moves both sides at once; this one fails whenever a refactor shifts a
// single byte of a runner's result, metric snapshot or telemetry dump.
//
// There is deliberately no -update flag: a mismatch lists the recomputed
// file in the log, and writes each differing output to a fresh temporary
// directory so it can be diffed against a run of the previous commit.
func TestRunnerDigests(t *testing.T) {
	want := readDigests(t, filepath.Join("testdata", "runner_digests.txt"))
	got := runnerOutputs(t)
	var lines []string
	var dir string
	for _, o := range got {
		sum := sha256.Sum256(o.data)
		hexSum := hex.EncodeToString(sum[:])
		lines = append(lines, o.name+" "+hexSum)
		if want[o.name] == hexSum {
			continue
		}
		if dir == "" {
			// Not t.TempDir: it is removed when the test ends, before
			// anyone could diff the files.
			var err error
			if dir, err = os.MkdirTemp("", "runner-digests-"); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, strings.ReplaceAll(o.name, "/", "_"))
		if err := os.WriteFile(path, o.data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Errorf("%s: sha256 %s, want %q (output in %s)", o.name, hexSum, want[o.name], path)
	}
	if len(want) != len(got) {
		t.Errorf("testdata lists %d digests, the test computes %d", len(want), len(got))
	}
	if t.Failed() {
		t.Logf("recomputed digests:\n%s", strings.Join(lines, "\n"))
	}
}

func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		m[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return m
}

type runnerOutput struct {
	name string
	data []byte
}

// runnerOutputs runs each pinned configuration and encodes its result.
// The fault config is `sweep -faults -seed 7`'s and the multihost one is
// `sweep -telemetry`'s as CI invokes them.
func runnerOutputs(t *testing.T) []runnerOutput {
	t.Helper()
	var outs []runnerOutput
	add := func(name string, parts ...any) {
		var b []byte
		for _, p := range parts {
			if raw, ok := p.([]byte); ok {
				b = append(b, raw...)
				continue
			}
			enc, err := json.Marshal(p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			b = append(b, enc...)
		}
		outs = append(outs, runnerOutput{name, b})
	}
	newPipe := func() (*trace.Registry, *telemetry.Pipeline) {
		reg := trace.NewRegistry()
		return reg, telemetry.NewPipeline(reg, telemetry.Config{IntervalNs: 100_000})
	}

	reg, pipe := newPipe()
	mh, err := RunMultiHost(MultiHostConfig{
		Hosts: 3, QueueDepth: 4, IOsPerHost: 120, Seed: 7, Op: fio.RandRW,
		LocalBaseline: true, Registry: reg, Pipeline: pipe,
	})
	if err != nil {
		t.Fatal(err)
	}
	tel, err := pipe.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	add("multihost-telemetry", tel)
	add("multihost-telemetry/utils", mh.Utils, mh.ElapsedNs, mh.TotalIOs)

	reg, pipe = newPipe()
	fr, err := RunFaultScenario(FaultRunConfig{
		Hosts: 4, QueueDepth: 4, IOsPerHost: 400, Seed: 7,
		ManagerRestart: 50 * sim.Microsecond, ManagerRestartAtNs: 150 * sim.Microsecond,
		Noise: fault.PlanSpec{
			StartNs: 50 * sim.Microsecond, EndNs: 900 * sim.Microsecond,
			LinkStalls: 2, StallExtraNs: 2 * sim.Microsecond, StallNs: 20 * sim.Microsecond,
			DoorbellDrops: 2, CQEDrops: 2,
		},
		Registry: reg, Pipeline: pipe,
	})
	if err != nil {
		t.Fatal(err)
	}
	add("faults-seed7", fr, reg.Snapshot())

	reg = trace.NewRegistry()
	vr, err := RunVolumeScenario(VolumeRunConfig{Seed: 7, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	add("volume-seed7", vr, reg.Snapshot())

	reg, pipe = newPipe()
	qr, err := RunQoSScenario(QoSRunConfig{
		Scenario: QoSNoisyNeighbor, QoS: true, DurationNs: 5 * sim.Millisecond,
		Registry: reg, Pipeline: pipe,
	})
	if err != nil {
		t.Fatal(err)
	}
	add("qos-noisy-5ms", qr, reg.Snapshot())

	// The -wallclock runs' event counts and virtual durations.
	for _, s := range Scenarios() {
		for _, qd := range []int{1, 8} {
			_, st, err := RunJobStats(s, ScenarioConfig{}, fio.JobSpec{
				Name: "wallclock", Op: fio.RandRead, QueueDepth: qd,
				MaxIOs: 200, WarmupIOs: 20, RangeBlocks: 1 << 16, Seed: 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			add(fmt.Sprintf("jobstats/%s/qd%d", s, qd),
				[]byte(fmt.Sprintf("events=%d virtual_ns=%d", st.Events, st.VirtualNs)))
		}
	}
	return outs
}
