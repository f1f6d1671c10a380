package cluster

import (
	"repro/internal/nvme"
	"repro/internal/pcie"
	"repro/internal/sim"
	"repro/internal/sisci"
	"repro/internal/smartio"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Every sharing scenario of the paper (§IV–VI) has the same shape: device
// hosts that each hold a single-function controller registered with
// SmartIO, client hosts that each get one queue pair from a manager, and
// the observers (metric registry, sampling pipeline, tracer) on the one
// kernel. rig builds that shape for RunMultiHost, RunFaultScenario,
// RunVolumeScenario and RunQoSScenario; each runner supplies only its
// scenario body.

// rigSpec declares a shared-device scenario's topology and observers.
type rigSpec struct {
	// cluster holds the host count (device hosts included) and fabric
	// parameters. AdapterWindows is always 1024.
	cluster Config
	// devices puts one controller on each of hosts 0..len(devices)-1,
	// registered with SmartIO under its name. Only the first gets the
	// unlabeled nvme.ctrl.* gauges.
	devices []rigDevice
	reg     *trace.Registry
	pipe    *telemetry.Pipeline
	// tracer is set on every device controller; the runner threads it
	// through its own clients.
	tracer *trace.Tracer
}

type rigDevice struct {
	name string
	nvme NVMeConfig
}

// rig is an assembled shared-device scenario.
type rig struct {
	*Cluster
	svc   *smartio.Service
	ctrls []*nvme.Controller
	devs  []*smartio.Device
	pipe  *telemetry.Pipeline
	err   error
}

// newRig builds the cluster, attaches and registers the devices, and
// wires the kernel, host and first-controller gauges. Nothing is spawned
// yet except the controllers' own processes.
func newRig(spec rigSpec) (*rig, error) {
	cc := spec.cluster
	cc.AdapterWindows = 1024
	c, err := New(cc)
	if err != nil {
		return nil, err
	}
	r := &rig{Cluster: c, pipe: spec.pipe}
	for i, d := range spec.devices {
		ctrl, err := c.AttachNVMe(i, d.nvme)
		if err != nil {
			return nil, err
		}
		if spec.tracer != nil {
			ctrl.SetTracer(spec.tracer)
		}
		r.ctrls = append(r.ctrls, ctrl)
	}
	r.svc = smartio.NewService(c.Dir)
	for i, d := range spec.devices {
		dev, err := r.svc.Register(sisci.NodeID(i), d.name, pcie.Range{Base: NVMeBARBase, Size: NVMeBARSize})
		if err != nil {
			return nil, err
		}
		r.devs = append(r.devs, dev)
	}
	if reg := spec.reg; reg != nil {
		WireKernelMetrics(reg, c.K)
		for _, h := range c.Hosts {
			WireHostMetrics(reg, h)
		}
		WireControllerMetrics(reg, r.ctrls[0])
	}
	return r, nil
}

// start attaches the pipeline and spawns body as the scenario's main
// process; an error body returns fails the run. Call it once, after the
// runner's own set-up: the kernel breaks same-time ties by scheduling
// order, so what is spawned before and after it is part of the result.
func (r *rig) start(name string, body func(p *sim.Proc) error) {
	if r.pipe != nil {
		r.pipe.Attach(r.K)
	}
	r.Go(name, func(p *sim.Proc) {
		if err := body(p); err != nil && r.err == nil {
			r.err = err
		}
	})
}

// finish drains the simulation and returns the main process's error.
// With a pipeline it takes one last sample at the final instant: the
// tail below one sampling interval, and anything completing at the
// instant of the last tick (ticks fire before same-time completions),
// would otherwise be missing.
func (r *rig) finish() error {
	r.Run()
	if r.err != nil {
		return r.err
	}
	if r.pipe != nil {
		r.pipe.Sample(r.K.Now())
	}
	return nil
}
