package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fio"
)

// sizing sets a workload's per-topology IO counts: warm-up IOs and
// measured IOs per job, per client.
type sizing struct{ warm, ios int }

// workload is one benchmark workload: the topologies a repetition runs,
// in order, each on a fresh cluster.
type workload struct {
	name string
	why  string
	// size is the normal sizing; tests use tiny.
	size, tiny sizing
	topos      func(s sizing) []topo
	// primary is the topology whose latency sample gives virt_p50_us and
	// virt_p99_us.
	primary int
	// fig10 marks the workload that also checks the §VI deltas.
	fig10 bool
}

// jobSeed derives a distinct fio seed per benchmark seed, client and job
// (job -1 is the warm-up).
func jobSeed(seed int64, client, job int) int64 {
	return seed*1000 + int64(client)*10 + int64(job) + 2
}

// fig10RangeBlocks is the random-offset range of the Fig. 10 runs, as in
// cmd/fiobench.
const fig10RangeBlocks = 1 << 18

var workloads = []workload{
	{
		name: "paper-qd1",
		why:  "Fig. 10: four stacks, 4 KiB random read then write at QD1; the only workload using hostdriver, nvmeof and rdma",
		size: sizing{warm: 100, ios: 2000},
		tiny: sizing{warm: 5, ios: 60},
		topos: func(s sizing) []topo {
			var ts []topo
			for _, op := range []fio.Op{fio.RandRead, fio.RandWrite} {
				for _, st := range cluster.Scenarios() {
					spec := fio.JobSpec{Name: fmt.Sprintf("%s-%s", st, op), Op: op, RangeBlocks: fig10RangeBlocks}
					ts = append(ts, topo{stack: string(st), clients: 1, warm: spec, jobs: []fio.JobSpec{spec}})
				}
			}
			return sized(ts, s)
		},
		primary: 3, // ours-remote read
		fig10:   true,
	},
	{
		name: "shared-8x-qd8-rw",
		why:  "8 client hosts share one controller, QD8 70/30 random 4 KiB each: heaviest set-up and kernel share",
		size: sizing{warm: 50, ios: 1500},
		tiny: sizing{warm: 4, ios: 40},
		topos: func(s sizing) []topo {
			spec := fio.JobSpec{Name: "rw", Op: fio.RandRW, ReadPct: 70, QueueDepth: 8}
			return sized([]topo{{stack: shared, clients: 8, partBlocks: 16 << 10, warm: spec, jobs: []fio.JobSpec{spec}}}, s)
		},
	},
	{
		name: "bulk-128k-qd4",
		why:  "ours-remote 128 KiB sequential write then read at QD4: per-byte costs (PRP lists, copies, medium stores)",
		size: sizing{warm: 32, ios: 1000},
		tiny: sizing{warm: 4, ios: 16},
		topos: func(s sizing) []topo {
			w := fio.JobSpec{Name: "write", Op: fio.SeqWrite, BlockSize: 128 << 10, QueueDepth: 4, RangeBlocks: 1 << 16}
			r := w
			r.Name, r.Op = "read", fio.SeqRead
			return sized([]topo{{stack: string(cluster.OursRemote), clients: 1, warm: w, jobs: []fio.JobSpec{w, r}, latWrites: true}}, s)
		},
	},
}

// sized fills in IO counts and seeds. The measured window is bounded by
// IO count only: the virtual runtime cap is lifted.
func sized(ts []topo, s sizing) []topo {
	const noCap = 1 << 62
	for i := range ts {
		ts[i].warm.MaxIOs, ts[i].warm.Runtime = s.warm, noCap
		jobs := make([]fio.JobSpec, len(ts[i].jobs))
		for j, spec := range ts[i].jobs {
			spec.MaxIOs, spec.Runtime = s.ios, noCap
			jobs[j] = spec
		}
		ts[i].jobs = jobs
	}
	return ts
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
