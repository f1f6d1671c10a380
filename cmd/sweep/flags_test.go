package main

import (
	"flag"
	"io"
	"strings"
	"testing"
)

// An explicit -out or -ios must reach the selected mode even when it
// equals the flag's default, which belongs to another mode.
func TestModeDefaults(t *testing.T) {
	for _, tc := range []struct {
		args string
		out  string
		ios  int
	}{
		{"-wallclock", "BENCH_sim.json", 400},
		{"-volume", "VOLUME_sim.json", 150},
		{"-volume -ios 400", "VOLUME_sim.json", 400},
		{"-volume -out BENCH_sim.json", "BENCH_sim.json", 150},
		{"-faults", "FAULTS_sim.json", 400},
		{"-faults -out BENCH_sim.json", "BENCH_sim.json", 400},
		{"-faults -volume", "FAULTS_sim.json", 400},
		{"-qos", "QOS_sim.json", 400},
		{"-qos -out BENCH_sim.json", "BENCH_sim.json", 400},
		{"-bottleneck", "", 400},
		{"-whatif -out BENCH_sim.json", "BENCH_sim.json", 400},
	} {
		fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		o := defineFlags(fs)
		if err := fs.Parse(strings.Fields(tc.args)); err != nil {
			t.Fatalf("%s: %v", tc.args, err)
		}
		o.modeDefaults(fs)
		if o.out != tc.out || o.ios != tc.ios {
			t.Errorf("sweep %s: out=%q ios=%d, want out=%q ios=%d", tc.args, o.out, o.ios, tc.out, tc.ios)
		}
	}
}
