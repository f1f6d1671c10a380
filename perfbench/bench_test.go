package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
)

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced, and checks that it is correct and reports every metric
// BENCHMARK.json names, finite, and end-to-end metrics above zero.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("builds full-size topologies")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := bench(w, w.tiny, 7, 1, traced, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v failed=%d attempted=%d", w.name, traced, res.correct, res.failed, res.attempted)
			}
			line, err := resultJSON(res, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			var got struct {
				Metrics map[string]struct{ Value float64 } `json:"metrics"`
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			defs := endToEnd
			if traced {
				defs = perLayerDefs()
			}
			if len(got.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(got.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := got.Metrics[d.Name]
				if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 && d.Name != "trace.overhead_us_per_io" {
					t.Errorf("%s traced=%v: %s = %v (present %v)", w.name, traced, d.Name, v.Value, ok)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, d.Name, v.Value)
				}
			}
		}
	}
}

// TestFig10DeltaErr checks the error against EXPERIMENTS.md's E3 table.
func TestFig10DeltaErr(t *testing.T) {
	for _, tc := range []struct {
		d    [4]float64
		want float64
	}{
		{[4]float64{7.43, 1.26, 7.59, 2.51}, 0.51},
		{fig10Paper, 0},
		{[4]float64{7.7, 1, 7.5, 1.2}, 0.8},
	} {
		if got := fig10DeltaErr(tc.d); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("fig10DeltaErr(%v) = %v, want %v", tc.d, got, tc.want)
		}
	}
}

// TestQuantiles matches Python's statistics.quantiles(xs, n=4).
func TestQuantiles(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{4}, [3]float64{4, 4, 4}},
	} {
		if got := quantiles(tc.xs); got != tc.want {
			t.Errorf("quantiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// TestDescribeMatchesBenchmarkJSON keeps BENCHMARK.json in step with the
// metric table here.
func TestDescribeMatchesBenchmarkJSON(t *testing.T) {
	want, err := describe()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from `perfbench --describe`:\n%s", want)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Proc).yield": "sim",
		"repro/internal/fio.Run.func1":     "fio",
		"repro/internal/nvmeof.NewTarget":  "nvmeof",
		"runtime.chanrecv":                 "",
		"main.main":                        "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestRollUp decodes a hand-built profile: one sample of 3 whose leaf
// is a runtime frame called from sim, one of 2 with no repro frame.
func TestRollUp(t *testing.T) {
	var p pb
	for _, s := range []string{"", "runtime.chanrecv", "repro/internal/sim.(*Proc).yield"} {
		p.bytes(6, []byte(s))
	}
	for id, name := range []uint64{1, 2} {
		var f pb
		f.varint(1, uint64(id+1))
		f.varint(2, name)
		p.bytes(5, f)
	}
	for id := uint64(1); id <= 2; id++ {
		var line, loc pb
		line.varint(1, id)
		loc.varint(1, id)
		loc.bytes(4, line)
		p.bytes(4, loc)
	}
	var s1, s2 pb
	s1.bytes(1, packed(1, 2)) // packed location ids, leaf first
	s1.bytes(2, packed(3, 30_000_000))
	s2.varint(1, 1) // unpacked
	s2.bytes(2, packed(2, 20_000_000))
	p.bytes(2, s1)
	p.bytes(2, s2)

	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := rollUp(z.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["sim"] != 3 || got["runtime"] != 2 {
		t.Errorf("rollUp = %v, want sim:3 runtime:2", got)
	}
}

// pb is a minimal protobuf encoder for TestRollUp.
type pb []byte

func (p *pb) varint(num int, v uint64) {
	*p = binary.AppendUvarint(*p, uint64(num)<<3)
	*p = binary.AppendUvarint(*p, v)
}

func (p *pb) bytes(num int, b []byte) {
	*p = binary.AppendUvarint(*p, uint64(num)<<3|2)
	*p = binary.AppendUvarint(*p, uint64(len(b)))
	*p = append(*p, b...)
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}
