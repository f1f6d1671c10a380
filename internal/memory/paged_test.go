package memory

import (
	"bytes"
	"errors"
	"runtime"
	"testing"
)

func materialized(m *Memory) int {
	n := 0
	for _, p := range m.pages {
		if p != nil {
			n++
		}
	}
	return n
}

func TestUntouchedReadIsZeroAndUnmaterialized(t *testing.T) {
	m := New(0x10000, 8*PageSize)
	buf := bytes.Repeat([]byte{0xAA}, 3*PageSize)
	if err := m.Read(0x10000+PageSize/2, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %#x, want 0", i, b)
		}
	}
	if n := materialized(m); n != 0 {
		t.Fatalf("read materialized %d pages", n)
	}
	if err := m.Write(0x10000+PageSize-1, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	if n := materialized(m); n != 2 {
		t.Fatalf("2-byte write across a boundary materialized %d pages, want 2", n)
	}
}

func TestSliceSpansPages(t *testing.T) {
	m := New(0x10000, 4*PageSize)
	for _, n := range []uint64{9, 16} {
		if _, err := m.Slice(0x10000+PageSize-8, n); !errors.Is(err, ErrSpansPages) {
			t.Fatalf("cross-page slice of %d: %v, want ErrSpansPages", n, err)
		}
	}
	if _, err := m.Slice(0x10000, 2*PageSize); !errors.Is(err, ErrSpansPages) {
		t.Fatalf("two-page slice: %v, want ErrSpansPages", err)
	}
	s, err := m.Slice(0x10000+PageSize, PageSize)
	if err != nil {
		t.Fatalf("whole-page slice: %v", err)
	}
	if len(s) != PageSize {
		t.Fatalf("len=%d", len(s))
	}
	if _, err := m.Slice(0x10000+4*PageSize-4, 8); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("past-end slice: %v, want ErrOutOfRange", err)
	}
}

func TestAllocZeroedMultiPageDirtyFreed(t *testing.T) {
	m := New(0x10000, 16*PageSize)
	// Start mid-page so the segment has partial pages at both ends and
	// fully covered pages in between.
	if _, err := m.Alloc(100, 1); err != nil {
		t.Fatal(err)
	}
	const size = 3*PageSize + 500
	a, err := m.Alloc(size, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Write(a, bytes.Repeat([]byte{0xFF}, size)); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(a); err != nil {
		t.Fatal(err)
	}
	b, err := m.AllocZeroed(size, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b != a {
		t.Fatalf("first fit moved: %#x != %#x", b, a)
	}
	got := make([]byte, size)
	if err := m.Read(b, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, size)) {
		t.Fatal("AllocZeroed segment holds stale bytes")
	}
	// Two pages are fully covered and dropped; the two partial ones stay.
	if n := materialized(m); n != 2 {
		t.Fatalf("%d pages materialized after AllocZeroed, want 2", n)
	}
}

func TestFreeKeepsBytes(t *testing.T) {
	m := New(0, 2*PageSize)
	a, _ := m.Alloc(PageSize, PageSize)
	if err := m.Write(a, []byte{7, 8, 9}); err != nil {
		t.Fatal(err)
	}
	if err := m.Free(a); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3)
	if err := m.Read(a, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{7, 8, 9}) {
		t.Fatalf("freed bytes read back %v", got)
	}
}

func TestNewLargeIsCheap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := New(0, 64<<20)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("New(0, 64 MiB) allocated %d bytes, want < 1 MiB", d)
	}
}

// fuzzInput hands out bytes of a fuzz input, then zeros once exhausted.
type fuzzInput []byte

func (in *fuzzInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

func (in *fuzzInput) u16() uint64 { return uint64(in.byte()) | uint64(in.byte())<<8 }

// FuzzMemory runs random Write/Read/Slice/Alloc/AllocZeroed/Free
// sequences against a flat []byte reference model. The size is not a
// page multiple, so the partial last page is exercised too.
func FuzzMemory(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		const base, size = 0x20000, 5*PageSize + 123
		m := New(base, size)
		ref := make([]byte, size)
		live := map[Addr]uint64{}
		var order []Addr
		in := fuzzInput(data)
		fill := byte(1)
		for step := 0; len(in) > 0 && step < 256; step++ {
			op := in.byte() % 6
			// Offsets reach a little past the end to cover ErrOutOfRange.
			off := in.u16() % (size + 64)
			n := in.u16() % (3 * PageSize)
			addr := Addr(base + off)
			inRange := off+n <= size
			switch op {
			case 0:
				buf := bytes.Repeat([]byte{fill}, int(n))
				fill++
				err := m.Write(addr, buf)
				if inRange != (err == nil) {
					t.Fatalf("step %d: Write(%#x,+%d) err=%v inRange=%v", step, addr, n, err, inRange)
				}
				if err == nil {
					copy(ref[off:], buf)
				}
			case 1:
				buf := make([]byte, n)
				err := m.Read(addr, buf)
				if inRange != (err == nil) {
					t.Fatalf("step %d: Read(%#x,+%d) err=%v inRange=%v", step, addr, n, err, inRange)
				}
				if err == nil && !bytes.Equal(buf, ref[off:off+n]) {
					t.Fatalf("step %d: Read(%#x,+%d) differs from model", step, addr, n)
				}
			case 2:
				n %= PageSize + 1
				inRange = off+n <= size
				s, err := m.Slice(addr, n)
				switch {
				case !inRange:
					if !errors.Is(err, ErrOutOfRange) {
						t.Fatalf("step %d: Slice(%#x,+%d) err=%v, want ErrOutOfRange", step, addr, n, err)
					}
				case n > 0 && off%PageSize+n > PageSize:
					if !errors.Is(err, ErrSpansPages) {
						t.Fatalf("step %d: Slice(%#x,+%d) err=%v, want ErrSpansPages", step, addr, n, err)
					}
				case err != nil:
					t.Fatalf("step %d: Slice(%#x,+%d): %v", step, addr, n, err)
				default:
					if !bytes.Equal(s, ref[off:off+n]) {
						t.Fatalf("step %d: Slice(%#x,+%d) differs from model", step, addr, n)
					}
					for i := range s {
						s[i] = fill
						ref[off+uint64(i)] = fill
					}
					fill++
				}
			case 3, 4:
				sz := n + 1
				align := uint64(1) << (off % 13)
				var a Addr
				var err error
				if op == 3 {
					a, err = m.Alloc(sz, align)
				} else {
					a, err = m.AllocZeroed(sz, align)
				}
				if err != nil {
					if !errors.Is(err, ErrNoSpace) {
						t.Fatalf("step %d: alloc %d align %d: %v", step, sz, align, err)
					}
					continue
				}
				if a%align != 0 || !m.Contains(a, sz) {
					t.Fatalf("step %d: alloc %d align %d returned %#x", step, sz, align, a)
				}
				for b, bs := range live {
					if a < b+bs && b < a+sz {
						t.Fatalf("step %d: [%#x,+%d) overlaps live [%#x,+%d)", step, a, sz, b, bs)
					}
				}
				live[a] = sz
				order = append(order, a)
				if op == 4 {
					clear(ref[a-base : a-base+sz])
				}
			case 5:
				if len(order) == 0 {
					if err := m.Free(addr); !errors.Is(err, ErrBadFree) {
						t.Fatalf("step %d: Free(%#x) with nothing live: %v", step, addr, err)
					}
					continue
				}
				i := int(off) % len(order)
				a := order[i]
				order = append(order[:i], order[i+1:]...)
				delete(live, a)
				if err := m.Free(a); err != nil {
					t.Fatalf("step %d: Free(%#x): %v", step, a, err)
				}
			}
		}
		all := make([]byte, size)
		if err := m.Read(base, all); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(all, ref) {
			t.Fatal("final memory differs from model")
		}
		var liveBytes uint64
		for _, sz := range live {
			liveBytes += sz
		}
		if m.FreeBytes()+liveBytes != size || m.Allocated() != len(live) {
			t.Fatalf("accounting: free %d + live %d != %d, %d allocations vs %d",
				m.FreeBytes(), liveBytes, uint64(size), m.Allocated(), len(live))
		}
	})
}
