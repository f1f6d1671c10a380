package hostdriver

import (
	"errors"
	"testing"

	"repro/internal/memory"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// A DMA page whose range cannot be sliced must fail the copy instead of
// silently moving zero bytes.
func TestMovePagesReportsSliceError(t *testing.T) {
	d := pcie.NewDomain("h", sim.NewKernel(), pcie.LinkParams{})
	rc := d.AddNode(pcie.RootComplex, "rc")
	hp, err := pcie.NewHostPort(d, rc, memory.New(0x10000, 1<<16), pcie.CPUParams{})
	if err != nil {
		t.Fatal(err)
	}
	q := &ioQueue{drv: &Driver{host: hp}}
	good := &cmdCtx{pages: []pcie.Addr{0x10000, 0x11000}}
	if err := q.movePages(good, make([]byte, 6000), true); err != nil {
		t.Fatalf("page-aligned copy: %v", err)
	}
	// A page address 8 bytes short of a boundary makes the first page's
	// range straddle two backing pages.
	bad := &cmdCtx{pages: []pcie.Addr{0x10ff8}}
	for _, in := range []bool{true, false} {
		if err := q.movePages(bad, make([]byte, 16), in); !errors.Is(err, memory.ErrSpansPages) {
			t.Fatalf("movePages(in=%v) = %v, want ErrSpansPages", in, err)
		}
	}
}
