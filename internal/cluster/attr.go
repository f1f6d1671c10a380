package cluster

import "repro/internal/attr"

// UtilWindow is an occupancy baseline captured at workload start, so
// scenario utilizations cover only the measured window rather than the
// whole virtual timeline (bring-up can include long discovery timers —
// ours-remote idles ~10 virtual seconds before the first I/O — which
// would otherwise dilute every busy fraction toward zero).
type UtilWindow struct {
	startNs    int64
	ctrlBusyNs int64
	sqBusyNs   map[uint16]int64
	cqBusyNs   map[uint16]int64
	linkNs     int64
}

// StartUtilWindow snapshots the scenario's occupancy instruments at the
// current virtual time. Call it just before the workload starts.
func (e *Env) StartUtilWindow() *UtilWindow {
	now := int64(e.Cluster.K.Now())
	w := &UtilWindow{
		startNs:    now,
		ctrlBusyNs: e.Ctrl.BusyOcc.BusyAsOf(now),
		sqBusyNs:   make(map[uint16]int64),
		cqBusyNs:   make(map[uint16]int64),
	}
	for _, qid := range e.Ctrl.ActiveIOQueues() {
		qs := e.Ctrl.QueueStats(qid)
		w.sqBusyNs[qid] = qs.SQOcc.BusyAsOf(now)
		w.cqBusyNs[qid] = qs.CQOcc.BusyAsOf(now)
	}
	for _, h := range e.Cluster.Hosts {
		w.linkNs += h.Dom.Link().TotalNs
	}
	return w
}

// ResourceUtils measures the assembled scenario's per-resource busy
// fraction between the window baseline and the current virtual time
// (usually right after the workload drained), keyed by attr.Res* name.
// A nil window measures from virtual time zero. Only instrumented
// resources appear: the controller's command-execution busy time, the
// hottest SQ/CQ among the active I/O queues, and the cluster link's
// offered busy time summed over every host domain's cross-NTB traffic.
// Resources without an occupancy instrument (host software, the flash
// medium) are absent and reports render them as "-". Pair it with an
// attr.BlameSet over the same run's spans to build a ranked bottleneck
// report.
func (e *Env) ResourceUtils(w *UtilWindow) map[string]float64 {
	now := int64(e.Cluster.K.Now())
	if w == nil {
		w = &UtilWindow{}
	}
	elapsed := now - w.startNs
	u := make(map[string]float64)
	if elapsed <= 0 {
		return u
	}
	u[attr.ResNVMeCtrl] = float64(e.Ctrl.BusyOcc.BusyAsOf(now)-w.ctrlBusyNs) / float64(elapsed)
	qids := e.Ctrl.ActiveIOQueues()
	if len(qids) > 0 {
		var sqMax, cqMax float64
		for _, qid := range qids {
			qs := e.Ctrl.QueueStats(qid)
			if v := float64(qs.SQOcc.BusyAsOf(now)-w.sqBusyNs[qid]) / float64(elapsed); v > sqMax {
				sqMax = v
			}
			if v := float64(qs.CQOcc.BusyAsOf(now)-w.cqBusyNs[qid]) / float64(elapsed); v > cqMax {
				cqMax = v
			}
		}
		u[attr.ResNVMeSQ] = sqMax
		u[attr.ResNVMeCQ] = cqMax
	}
	var linkNs int64
	for _, h := range e.Cluster.Hosts {
		linkNs += h.Dom.Link().TotalNs
	}
	u[attr.ResFabricLink] = float64(linkNs-w.linkNs) / float64(elapsed)
	return u
}
