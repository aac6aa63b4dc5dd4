package vm

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"hardsnap/internal/asm"
)

// snapConfig is a small machine whose last page is partial, so the
// property below reaches page-straddling and end-of-RAM stores cheaply.
var snapConfig = Config{RAMBase: 0x2000, RAMSize: 4*pageSize + 100}

// TestDirtyRestoreMatchesFullRestore is the dirty ≡ full property: a
// CPU restoring only dirty pages holds the same RAM as a reference CPU
// that always copies all of it, under random sequences of stores,
// snapshots, restores to the anchor and to foreign snapshots, resets
// and loads.
func TestDirtyRestoreMatchesFullRestore(t *testing.T) {
	prog, err := asm.Assemble("addi r1, r0, 1\nhalt\n", snapConfig.RAMBase+pageSize-2)
	if err != nil {
		t.Fatal(err)
	}
	ram := snapConfig.RAMSize
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dut, ref := New(snapConfig, nil), New(snapConfig, nil)
		type pair struct{ dut, ref *Snapshot }
		var snaps []pair
		anchor := -1 // index into snaps of dut's anchor, -1 if none
		for step := 0; step < 200; step++ {
			what := ""
			switch k := r.Intn(20); {
			case k < 12:
				size := []int{1, 2, 4}[r.Intn(3)]
				var off uint32
				switch r.Intn(3) {
				case 0: // straddle or touch a page boundary
					off = uint32(1+r.Intn(int(ram/pageSize)))*pageSize - uint32(r.Intn(4))
				case 1: // last bytes of RAM, and just past it
					off = ram - uint32(r.Intn(6))
				default:
					off = uint32(r.Intn(int(ram)))
				}
				addr, val := snapConfig.RAMBase+off, r.Uint32()
				e1, e2 := dut.WriteMem(addr, size, val), ref.WriteMem(addr, size, val)
				if (e1 == nil) != (e2 == nil) {
					t.Errorf("seed %d: store %#x/%d errors differ: %v vs %v", seed, addr, size, e1, e2)
					return false
				}
				what = "store"
			case k < 14:
				snaps = append(snaps, pair{dut.Snapshot(), ref.Snapshot()})
				what = "snapshot"
			case k < 18:
				if len(snaps) == 0 {
					continue
				}
				i := r.Intn(len(snaps))
				if anchor >= 0 && r.Intn(2) == 0 {
					i = anchor
				}
				dut.RestoreSnapshot(snaps[i].dut)
				ref.anchor = nil // force the full copy
				ref.RestoreSnapshot(snaps[i].ref)
				anchor = i
				what = "restore"
			case k < 19:
				dut.Reset()
				ref.Reset()
				anchor = -1
				what = "reset"
			default:
				if err := dut.Load(prog); err != nil {
					t.Fatal(err)
				}
				if err := ref.Load(prog); err != nil {
					t.Fatal(err)
				}
				anchor = -1
				what = "load"
			}
			if !bytes.Equal(dut.RAM(), ref.RAM()) {
				t.Errorf("seed %d step %d (%s): RAM differs from the full-copy reference", seed, step, what)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreSnapshotCopiesOnlyDirtyPages checks that the dirty path
// is actually taken: bytes planted in the anchor (a deliberate
// violation of snapshot immutability) are copied back only for pages
// written since the last restore. A mid-run Snapshot must not
// re-anchor, and every restore must clear the bitmap.
func TestRestoreSnapshotCopiesOnlyDirtyPages(t *testing.T) {
	cpu := New(Config{}, nil)
	snap := cpu.Snapshot()
	if err := cpu.WriteMem(5*pageSize, 1, 0x11); err != nil {
		t.Fatal(err)
	}
	cpu.RestoreSnapshot(snap) // full copy, anchors snap
	snap.Mem[5*pageSize] = 0x77
	snap.Mem[9*pageSize] = 0x77
	if err := cpu.WriteMem(9*pageSize, 1, 0x11); err != nil {
		t.Fatal(err)
	}
	cpu.Snapshot()
	cpu.RestoreSnapshot(snap)
	if got := cpu.RAM()[9*pageSize]; got != 0x77 {
		t.Fatalf("dirty page not restored: %#x", got)
	}
	if got := cpu.RAM()[5*pageSize]; got != 0 {
		t.Fatalf("clean page was copied: %#x", got)
	}
	snap.Mem[9*pageSize] = 0x55
	cpu.RestoreSnapshot(snap)
	if got := cpu.RAM()[9*pageSize]; got != 0x77 {
		t.Fatalf("page restored again with no write since: %#x", got)
	}
}

func TestRestoreSnapshotNoAllocs(t *testing.T) {
	cpu := run(t, `
		li r1, 0x300
		sw r1, 0(r1)
		halt
	`)
	snap := cpu.Snapshot()
	cpu.RestoreSnapshot(snap)
	allocs := testing.AllocsPerRun(100, func() {
		if err := cpu.WriteMem(0x4ffe, 4, 0xdeadbeef); err != nil {
			t.Fatal(err)
		}
		cpu.RestoreSnapshot(snap)
	})
	if allocs != 0 {
		t.Fatalf("RestoreSnapshot allocates %.1f times per call", allocs)
	}
}

func BenchmarkRestoreSnapshot(b *testing.B) {
	for _, bc := range []struct {
		name  string
		pages uint32
	}{{"dirty=1", 1}, {"dirty=all", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			cpu := New(Config{}, nil)
			pages := bc.pages
			if pages == 0 {
				pages = cpu.Config().RAMSize / pageSize
			}
			snap := cpu.Snapshot()
			cpu.RestoreSnapshot(snap)
			b.SetBytes(int64(pages) * pageSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for p := uint32(0); p < pages; p++ {
					if err := cpu.WriteMem(p*pageSize, 4, uint32(i)); err != nil {
						b.Fatal(err)
					}
				}
				cpu.RestoreSnapshot(snap)
			}
		})
	}
}
