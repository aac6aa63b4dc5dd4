package vm

import "math/bits"

// The CPU tracks dirty RAM in pages of pageSize bytes.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
)

// Snapshot is a complete copy of the CPU's architectural and memory
// state, used by the fuzzer's snapshot-based reset strategy.
//
// A Snapshot is immutable once taken: the CPU that last restored it
// keeps it as its anchor and copies back only the pages written since,
// so modifying Mem afterwards would leave stale bytes in that CPU.
type Snapshot struct {
	Regs       [16]uint32
	PC         uint32
	EPC        uint32
	InHandler  bool
	IRQEnabled bool
	Pending    uint32
	Cycles     uint64
	Mem        []byte
	Console    []byte
}

// Snapshot captures the CPU state. The stop state is not captured: a
// snapshot is only meaningful for a running machine. The CPU's anchor
// is left alone, so taking a snapshot mid-run does not cost the next
// RestoreSnapshot of the anchor a full copy.
func (c *CPU) Snapshot() *Snapshot {
	s := &Snapshot{
		Regs:       c.Regs,
		PC:         c.PC,
		EPC:        c.EPC,
		InHandler:  c.InHandler,
		IRQEnabled: c.IRQEnabled,
		Pending:    c.pending,
		Cycles:     c.Cycles,
		Mem:        make([]byte, len(c.mem)),
		Console:    append([]byte(nil), c.Console...),
	}
	copy(s.Mem, c.mem)
	return s
}

// RestoreSnapshot overwrites the CPU state from a snapshot and clears
// any stop condition. Restoring the CPU's anchor (the snapshot it was
// last restored to, with no Reset or Load since) copies back only the
// RAM pages written since then; any other snapshot is copied in full
// and becomes the new anchor. s must come from a CPU with the same
// RAM size.
func (c *CPU) RestoreSnapshot(s *Snapshot) {
	c.Regs = s.Regs
	c.PC = s.PC
	c.EPC = s.EPC
	c.InHandler = s.InHandler
	c.IRQEnabled = s.IRQEnabled
	c.pending = s.Pending
	c.Cycles = s.Cycles
	if s == c.anchor {
		c.restoreDirty(s.Mem)
	} else {
		copy(c.mem, s.Mem)
		clear(c.dirty)
		c.anchor = s
	}
	c.Console = append(c.Console[:0], s.Console...)
	c.Stop = StopNone
	c.Fault = nil
}

// restoreDirty copies the dirty pages of mem back from src and clears
// the bitmap.
func (c *CPU) restoreDirty(src []byte) {
	for i, w := range c.dirty {
		for ; w != 0; w &= w - 1 {
			off := (i*64 + bits.TrailingZeros64(w)) << pageShift
			end := min(off+pageSize, len(c.mem))
			copy(c.mem[off:end], src[off:end])
		}
		c.dirty[i] = 0
	}
}
