package memory

import "testing"

var sinkMem *Memory

// BenchmarkMemoryNew64MiB measures building one default-size host DRAM.
func BenchmarkMemoryNew64MiB(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkMem = New(0x10_0000, 64<<20)
	}
}

// benchSizes are a 4 KiB buffer starting mid-page, so it spans two pages,
// and a 128 KiB one spanning 33.
var benchSizes = []struct {
	name string
	n    int
}{{"4KiB", 4 << 10}, {"128KiB", 128 << 10}}

func BenchmarkMemoryWrite(b *testing.B) {
	for _, bs := range benchSizes {
		b.Run(bs.name, func(b *testing.B) {
			m := New(0x10_0000, 1<<20)
			buf := make([]byte, bs.n)
			addr := Addr(0x10_0000 + PageSize/2)
			b.SetBytes(int64(bs.n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := m.Write(addr, buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMemoryRead(b *testing.B) {
	for _, bs := range benchSizes {
		b.Run(bs.name, func(b *testing.B) {
			m := New(0x10_0000, 1<<20)
			buf := make([]byte, bs.n)
			addr := Addr(0x10_0000 + PageSize/2)
			// Materialize the pages so the read copies real bytes.
			if err := m.Write(addr, buf); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(bs.n))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := m.Read(addr, buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
