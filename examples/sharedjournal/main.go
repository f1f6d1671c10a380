// Sharedjournal demonstrates the workload the paper built a *block*
// device driver for (§V): shared-disk data structures, in the spirit of
// GFS/OCFS. Four hosts share one NVMe device through the distributed
// driver; each appends to its own on-disk journal extent (no cross-host
// locks — mirroring the per-host queue pairs underneath), then an auditor
// host reads every journal back and verifies all records.
package main

import (
	"fmt"
	"os"

	"repro/internal/block"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/pcie"
	"repro/internal/shareddisk"
	"repro/internal/sim"
	"repro/internal/smartio"
)

const (
	writers      = 4
	recsPerHost  = 10
	extentBlocks = 64
)

func main() {
	c, err := cluster.New(cluster.Config{Hosts: writers + 2, AdapterWindows: 512})
	check(err)
	_, err = c.AttachNVMe(0, cluster.NVMeConfig{})
	check(err)
	svc := smartio.NewService(c.Dir)
	dev, err := svc.Register(0, "nvme0", pcie.Range{Base: cluster.NVMeBARBase, Size: cluster.NVMeBARSize})
	check(err)

	c.Go("main", func(p *sim.Proc) {
		mgr, err := core.NewManager(p, svc, dev.ID, c.Hosts[0].Node, core.ManagerParams{})
		check(err)

		newQueue := func(host int) *block.Queue {
			cl, err := core.NewClient(p, fmt.Sprintf("dnvme%d", host), svc,
				c.Hosts[host].Node, mgr, core.ClientParams{})
			check(err)
			return block.NewQueue(c.K, cl, block.QueueParams{})
		}

		// Host 1 formats the shared device.
		fmtQ := newQueue(1)
		check(shareddisk.Format(p, fmtQ, writers, extentBlocks))
		fmt.Printf("formatted shared journal: %d hosts x %d blocks\n", writers, extentBlocks)

		// Writers on hosts 1..writers (host 1 reuses its queue).
		queues := map[int]*block.Queue{1: fmtQ}
		done := make([]*sim.Event, 0, writers)
		for w := 0; w < writers; w++ {
			host := w + 1
			if _, ok := queues[host]; !ok {
				queues[host] = newQueue(host)
			}
			q := queues[host]
			idx := w
			fin := sim.NewEvent(c.K)
			done = append(done, fin)
			c.Go(fmt.Sprintf("writer%d", idx), func(wp *sim.Proc) {
				defer fin.Trigger(nil)
				j, err := shareddisk.Open(wp, q, idx)
				check(err)
				for k := 0; k < recsPerHost; k++ {
					check(j.Append(wp, []byte(fmt.Sprintf("event host=%d seq=%d", idx, k))))
				}
				fmt.Printf("host %d appended %d records to extent %d\n", host, recsPerHost, idx)
			})
		}
		for _, fin := range done {
			p.Wait(fin)
		}

		// A separate auditor host reads everything back.
		auditQ := newQueue(writers + 1)
		j, err := shareddisk.Open(p, auditQ, 0)
		check(err)
		total := 0
		for w := 0; w < writers; w++ {
			recs, err := j.ReadAll(p, w)
			check(err)
			for k, rec := range recs {
				want := fmt.Sprintf("event host=%d seq=%d", w, k)
				if string(rec) != want {
					fmt.Fprintf(os.Stderr, "corrupt record %d/%d: %q\n", w, k, rec)
					os.Exit(1)
				}
			}
			total += len(recs)
		}
		fmt.Printf("auditor on host %d verified %d records across %d journals (checksums OK)\n",
			writers+1, total, writers)
		if total != writers*recsPerHost {
			fmt.Fprintf(os.Stderr, "expected %d records\n", writers*recsPerHost)
			os.Exit(1)
		}
	})
	c.Run()
	fmt.Println("shared-disk semantics verified over one single-function NVMe device")
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sharedjournal:", err)
		os.Exit(1)
	}
}
