package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/block"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fio"
	"repro/internal/hostdriver"
	"repro/internal/nvme"
	"repro/internal/nvmeof"
	"repro/internal/pcie"
	"repro/internal/rdma"
	"repro/internal/sim"
	"repro/internal/smartio"
	"repro/internal/stats"
	"repro/internal/trace"
)

// shared is the multi-host stack: the device and its manager on host 0,
// one distributed-driver client on each other host.
const shared = "shared"

// topo is one fresh topology and the jobs its clients run on it.
type topo struct {
	// stack is a cluster.Scenario or shared.
	stack   string
	clients int
	// partBlocks gives each client its own LBA range of that many
	// blocks (0: the whole namespace).
	partBlocks uint64
	// warm runs before the window; jobs run in order inside it.
	warm fio.JobSpec
	jobs []fio.JobSpec
	// latWrites limits the topology's virtual-latency sample to writes.
	latWrites bool
}

// device is the block device a client's queue sees: a partition of the
// driver's namespace. In the measured window it records each call's
// virtual latency; in a traced window it also times every call on the
// host.
type device struct {
	block.Device
	base, blocks uint64
	lat          *latencies // nil outside the window
	calls        *callStats // nil outside traced windows
}

// latencies holds the virtual latency of driver calls, in ns.
type latencies struct{ read, write, all *stats.Sample }

func newLatencies() *latencies {
	return &latencies{read: stats.NewSample(0), write: stats.NewSample(0), all: stats.NewSample(0)}
}

func (l *latencies) add(write bool, ns int64) {
	if write {
		l.write.AddDuration(ns)
	} else {
		l.read.AddDuration(ns)
	}
	l.all.AddDuration(ns)
}

// callStats accumulates driver calls seen by device.
type callStats struct {
	n    int64
	host time.Duration
	virt int64
}

func (d *device) Blocks() uint64 { return d.blocks }

func (d *device) ReadBlocks(p *sim.Proc, lba uint64, nblk int, buf []byte) error {
	h0, v0 := d.begin(p)
	err := d.Device.ReadBlocks(p, d.base+lba, nblk, buf)
	d.end(p, false, h0, v0)
	return err
}

func (d *device) WriteBlocks(p *sim.Proc, lba uint64, nblk int, data []byte) error {
	h0, v0 := d.begin(p)
	err := d.Device.WriteBlocks(p, d.base+lba, nblk, data)
	d.end(p, true, h0, v0)
	return err
}

func (d *device) begin(p *sim.Proc) (time.Time, int64) {
	if d.calls == nil {
		return time.Time{}, p.Now()
	}
	return time.Now(), p.Now()
}

func (d *device) end(p *sim.Proc, write bool, h0 time.Time, v0 int64) {
	virt := p.Now() - v0
	if d.lat != nil {
		d.lat.add(write, virt)
	}
	if d.calls != nil {
		d.calls.n++
		d.calls.host += time.Since(h0)
		d.calls.virt += virt
	}
}

// build constructs t's cluster and controller. The medium's jitter
// stream is seeded from the benchmark seed.
func build(t topo, seed int64, tr *trace.Tracer) (*cluster.Cluster, *nvme.Controller, error) {
	nv := cluster.NVMeConfig{Seed: seed + 0x5EED}
	if t.stack != shared {
		return cluster.Build(cluster.Scenario(t.stack), cluster.ScenarioConfig{NVMe: nv, Tracer: tr})
	}
	c, err := cluster.New(cluster.Config{Hosts: t.clients + 1, AdapterWindows: 1024})
	if err != nil {
		return nil, nil, err
	}
	ctrl, err := c.AttachNVMe(0, nv)
	if err != nil {
		return nil, nil, err
	}
	ctrl.SetTracer(tr)
	return c, ctrl, nil
}

// bringUp starts t's driver stack from process p and returns one driver
// per client, the distributed-driver clients (if any), and the host time
// spent in core.NewManager and core.NewClient.
func bringUp(p *sim.Proc, t topo, c *cluster.Cluster, ctrl *nvme.Controller, tr *trace.Tracer) ([]block.Device, []*core.Client, time.Duration, error) {
	switch s := cluster.Scenario(t.stack); s {
	case cluster.LinuxLocal:
		drv, err := hostdriver.New(p, "nvme0n1", c.Hosts[0].Port, cluster.NVMeBARBase, ctrl, hostdriver.Params{Tracer: tr})
		if err != nil {
			return nil, nil, 0, err
		}
		return []block.Device{drv}, nil, 0, nil

	case cluster.NVMeoFRemote:
		attach := func(h *cluster.Host, name string) (*rdma.NIC, error) {
			ep := h.Dom.AddNode(pcie.Endpoint, name)
			if err := h.Dom.Connect(h.RC, ep); err != nil {
				return nil, err
			}
			return rdma.NewNIC(name, h.Port, ep, rdma.Params{}), nil
		}
		nicT, err := attach(c.Hosts[0], "cx5-target")
		if err != nil {
			return nil, nil, 0, err
		}
		nicI, err := attach(c.Hosts[1], "cx5-init")
		if err != nil {
			return nil, nil, 0, err
		}
		qpT, qpI := nicT.NewQP(), nicI.NewQP()
		rdma.Connect(qpT, qpI)
		tgt, err := nvmeof.NewTarget(p, c.Hosts[0].Port, cluster.NVMeBARBase, nvmeof.TargetParams{})
		if err != nil {
			return nil, nil, 0, err
		}
		if err := tgt.Serve(p, qpT); err != nil {
			return nil, nil, 0, err
		}
		ini, err := nvmeof.NewInitiator(p, "nvme1n1", c.Hosts[1].Port, qpI, nvmeof.InitiatorParams{Tracer: tr})
		if err != nil {
			return nil, nil, 0, err
		}
		return []block.Device{ini}, nil, 0, nil
	}

	// The distributed driver: ours-local, ours-remote and shared.
	h0 := time.Now()
	svc := smartio.NewService(c.Dir)
	dev, err := svc.Register(0, "nvme0", pcie.Range{Base: cluster.NVMeBARBase, Size: cluster.NVMeBARSize})
	if err != nil {
		return nil, nil, 0, err
	}
	mgr, err := core.NewManager(p, svc, dev.ID, c.Hosts[0].Node, core.ManagerParams{})
	if err != nil {
		return nil, nil, 0, err
	}
	var hosts []int
	params := core.ClientParams{Tracer: tr}
	switch cluster.Scenario(t.stack) {
	case cluster.OursLocal:
		hosts = []int{0}
	case cluster.OursRemote:
		hosts = []int{1}
	default:
		for h := 1; h <= t.clients; h++ {
			hosts = append(hosts, h)
		}
		// As cluster.RunMultiHost: one spare slot over the job's queue
		// depth and 16 KiB bounce partitions.
		params.QueueDepth = t.warm.QueueDepth + 1
		params.PartitionBytes = 16 << 10
	}
	var devs []block.Device
	var clients []*core.Client
	for _, h := range hosts {
		cl, err := core.NewClient(p, fmt.Sprintf("dnvme%d", h), svc, c.Hosts[h].Node, mgr, params)
		if err != nil {
			return nil, nil, 0, err
		}
		devs = append(devs, cl)
		clients = append(clients, cl)
	}
	return devs, clients, time.Since(h0), nil
}

// runJobs runs each client's jobs, in order, on its own process and
// waits for all of them.
func runJobs(p *sim.Proc, qs []*block.Queue, jobs func(client int) []fio.JobSpec) ([][]*fio.Result, error) {
	k := p.Kernel()
	out := make([][]*fio.Result, len(qs))
	errs := make([]error, len(qs))
	done := make([]*sim.Event, len(qs))
	for i, q := range qs {
		i, q := i, q
		done[i] = sim.NewEvent(k)
		k.Spawn(fmt.Sprintf("client%d", i), func(cp *sim.Proc) {
			defer done[i].Trigger(nil)
			for _, spec := range jobs(i) {
				res, err := fio.Run(cp, q, spec)
				if err != nil {
					errs[i] = fmt.Errorf("client %d job %s: %w", i, spec.Name, err)
					return
				}
				out[i] = append(out[i], res)
			}
		})
	}
	p.WaitAll(done...)
	return out, errors.Join(errs...)
}
