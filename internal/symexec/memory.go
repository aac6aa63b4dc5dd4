package symexec

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"sync/atomic"

	"hardsnap/internal/expr"
	"hardsnap/internal/vm"
)

// Symbolic memory is paged: 4 KiB pages behind a page table, shared
// copy-on-write between every state that can reach them.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
	pageWords = pageSize / 64 // bitmap words per page
)

// page is one 4 KiB page of a state's memory. A page reachable from a
// Memory that does not own it (the program image, a page shared since
// a Clone) is never written again; the owner copies it first.
type page struct {
	// data holds the concrete bytes. A byte with a symbolic term in
	// sym keeps a stale value here that no read returns.
	data [pageSize]byte
	// written marks the bytes stored on this state's history; it is
	// what OverlaySize counts.
	written [pageWords]uint64
	// sym holds the page's symbolic bytes; nil until the first
	// symbolic store to the page and again once none is left.
	sym symSlot
}

// symSlot maps a page offset to the term of a symbolic byte; only the
// page's symbolic bytes have an entry.
type symSlot map[uint16]*expr.Term

// anyIn reports whether any of the n bytes from i is symbolic.
func (s symSlot) anyIn(i, n uint32) bool {
	for end := i + n; i < end; i++ {
		if _, ok := s[uint16(i)]; ok {
			return true
		}
	}
	return false
}

// Memory is a state's symbolic RAM: concrete bytes in copy-on-write
// pages plus a sparse per-page slot of symbolic terms. Concrete
// accesses read and write page bytes and build terms only for the
// value they return; forking copies only the page table.
//
// Every returned term is the one a byte-per-term overlay would give:
// a concrete byte or range reads as the interned constant of its value
// (what folding constant Concats yields), and a range with a symbolic
// byte composes the same Concat chain. A Memory and its clones must
// therefore be used with one expr.Builder.
type Memory struct {
	base  uint32
	size  uint32
	pages []*page // nil: an all-zero page nobody has written
	// owned has one bit per page that this Memory alone references
	// and may write in place. Clone clears the source's bits, possibly
	// while another goroutine clones the same source, so the bitmap
	// is accessed atomically. Pages themselves carry no ownership.
	owned []atomic.Uint64
	// written counts the distinct bytes this state has stored.
	written int
}

func newMemory(base, size uint32) *Memory {
	n := (uint64(size) + pageSize - 1) >> pageShift
	return &Memory{
		base:  base,
		size:  size,
		pages: make([]*page, n),
		owned: make([]atomic.Uint64, (n+63)/64),
	}
}

// NewMemory builds a memory holding a copy of a concrete RAM image.
// All-zero pages of the image are not materialised.
func NewMemory(base uint32, image []byte) *Memory {
	m := newMemory(base, uint32(len(image)))
	for off := 0; off < len(image); off += pageSize {
		chunk := image[off:min(off+pageSize, len(image))]
		if !allZero(chunk) {
			m.load(uint32(off), chunk)
		}
	}
	return m
}

// load copies bytes in at offset off as initial contents: they count
// as neither written nor symbolic.
func (m *Memory) load(off uint32, bytes []byte) {
	for len(bytes) > 0 {
		p := m.writable(off >> pageShift)
		n := copy(p.data[off&pageMask:], bytes)
		bytes = bytes[n:]
		off += uint32(n)
	}
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// Clone returns a memory with the same contents. Both share every
// page; whichever writes a page first copies it. The source gives up
// ownership of its pages, so Clone may run concurrently with other
// Clones of the same source but not with writes to it.
func (m *Memory) Clone() *Memory {
	for i := range m.owned {
		if m.owned[i].Load() != 0 {
			m.owned[i].Store(0)
		}
	}
	return &Memory{
		base:    m.base,
		size:    m.size,
		pages:   slices.Clone(m.pages),
		owned:   make([]atomic.Uint64, len(m.owned)),
		written: m.written,
	}
}

// writable returns page pi ready for an in-place write, copying it
// first unless this memory owns it.
func (m *Memory) writable(pi uint32) *page {
	w, bit := pi/64, uint64(1)<<(pi%64)
	own := m.owned[w].Load()
	if own&bit != 0 {
		return m.pages[pi]
	}
	np := new(page)
	if old := m.pages[pi]; old != nil {
		np.data = old.data
		np.written = old.written
		if old.sym != nil {
			np.sym = maps.Clone(old.sym)
		}
	}
	m.pages[pi] = np
	m.owned[w].Store(own | bit)
	return np
}

// InRange reports whether [addr, addr+size) lies inside RAM.
func (m *Memory) InRange(addr uint32, size uint32) bool {
	return addr >= m.base && uint64(addr-m.base)+uint64(size) <= uint64(m.size)
}

// OverlaySize returns the number of distinct bytes this state has
// stored (diagnostics).
func (m *Memory) OverlaySize() int { return m.written }

// byteAt returns the byte at RAM offset off: its concrete value, or
// its term when it is symbolic.
func (m *Memory) byteAt(off uint32) (byte, *expr.Term) {
	p := m.pages[off>>pageShift]
	if p == nil {
		return 0, nil
	}
	i := off & pageMask
	if t, ok := p.sym[uint16(i)]; ok {
		return 0, t
	}
	return p.data[i], nil
}

// concrete returns the little-endian value of the size bytes at RAM
// offset off, which must be in range; ok is false if any is symbolic.
func (m *Memory) concrete(off uint32, size int) (v uint64, ok bool) {
	if i := off & pageMask; i+uint32(size) <= pageSize {
		p := m.pages[off>>pageShift]
		if p == nil {
			return 0, true
		}
		if p.sym != nil && p.sym.anyIn(i, uint32(size)) {
			return 0, false
		}
		switch size {
		case 4:
			return uint64(binary.LittleEndian.Uint32(p.data[i:])), true
		case 2:
			return uint64(binary.LittleEndian.Uint16(p.data[i:])), true
		case 1:
			return uint64(p.data[i]), true
		}
	}
	for k := size - 1; k >= 0; k-- {
		bv, t := m.byteAt(off + uint32(k))
		if t != nil {
			return 0, false
		}
		v = v<<8 | uint64(bv)
	}
	return v, true
}

func loadFault(addr uint32) error {
	return &vm.FaultError{Addr: addr, Msg: "symbolic load outside RAM"}
}

// LoadByte returns the 8-bit term at addr.
func (m *Memory) LoadByte(b *expr.Builder, addr uint32) (*expr.Term, error) {
	if !m.InRange(addr, 1) {
		return nil, loadFault(addr)
	}
	v, t := m.byteAt(addr - m.base)
	if t != nil {
		return t, nil
	}
	return b.Const(uint64(v), 8), nil
}

// StoreByte stores an 8-bit term at addr. A constant is stored as a
// concrete byte.
func (m *Memory) StoreByte(addr uint32, t *expr.Term) error {
	if !m.InRange(addr, 1) {
		return &vm.FaultError{Addr: addr, Msg: "symbolic store outside RAM"}
	}
	if t.Width() != 8 {
		return fmt.Errorf("symexec: StoreByte with width %d", t.Width())
	}
	off := addr - m.base
	if v, ok := t.Const(); ok {
		m.storeConcrete(off, 1, v)
		return nil
	}
	p := m.writable(off >> pageShift)
	i := off & pageMask
	m.markWritten(p, i)
	if p.sym == nil {
		p.sym = make(symSlot)
	}
	p.sym[uint16(i)] = t
	return nil
}

func (m *Memory) markWritten(p *page, i uint32) {
	if p.written[i/64]&(1<<(i%64)) == 0 {
		p.written[i/64] |= 1 << (i % 64)
		m.written++
	}
}

// storeConcrete stores the size low bytes of v little-endian at RAM
// offset off; the range must be in RAM.
func (m *Memory) storeConcrete(off uint32, size int, v uint64) {
	for size > 0 {
		p := m.writable(off >> pageShift)
		for i := off & pageMask; size > 0 && i < pageSize; i++ {
			p.data[i] = byte(v)
			m.markWritten(p, i)
			if _, ok := p.sym[uint16(i)]; ok {
				delete(p.sym, uint16(i))
				if len(p.sym) == 0 {
					p.sym = nil
				}
			}
			v >>= 8
			size--
			off++
		}
	}
}

// Read composes a little-endian value of size bytes (1, 2 or 4). A
// fully concrete range reads as one interned constant; a range with a
// symbolic byte, or one not wholly in RAM, is composed byte by byte,
// highest address first, so its fault names the highest byte outside
// RAM.
func (m *Memory) Read(b *expr.Builder, addr uint32, size int) (*expr.Term, error) {
	if size > 0 && m.InRange(addr, uint32(size)) {
		if v, ok := m.concrete(addr-m.base, size); ok {
			return b.Const(v, uint(8*size)), nil
		}
	}
	var out *expr.Term
	for i := size - 1; i >= 0; i-- {
		byteT, err := m.LoadByte(b, addr+uint32(i))
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = byteT
		} else {
			out = b.Concat(out, byteT)
		}
	}
	return out, nil
}

// Write decomposes a value into little-endian bytes. A constant is
// stored without building per-byte terms. Bytes are stored lowest
// address first, so a range running out of RAM stores its in-range
// prefix and faults at the first byte outside.
func (m *Memory) Write(b *expr.Builder, addr uint32, size int, t *expr.Term) error {
	if v, ok := t.Const(); ok && t.Width() >= uint(8*size) && m.InRange(addr, uint32(size)) {
		m.storeConcrete(addr-m.base, size, v)
		return nil
	}
	for i := 0; i < size; i++ {
		byteT := b.Extract(t, uint(8*i), 8)
		if err := m.StoreByte(addr+uint32(i), byteT); err != nil {
			return err
		}
	}
	return nil
}

// ConcreteWord reads a 32-bit word that must be fully concrete (used
// for instruction fetch and vector table loads). It builds no terms. A
// word not wholly in RAM faults at its highest byte outside RAM; a
// symbolic word faults at addr.
func (m *Memory) ConcreteWord(addr uint32) (uint32, error) {
	if !m.InRange(addr, 4) {
		// Some byte is outside: a range running past the end of RAM
		// cannot wrap back into it, since RAM ends at or below 2^32.
		for i := 3; i >= 0; i-- {
			if a := addr + uint32(i); !m.InRange(a, 1) {
				return 0, loadFault(a)
			}
		}
	}
	v, ok := m.concrete(addr-m.base, 4)
	if !ok {
		return 0, &vm.FaultError{Addr: addr, Msg: "fetch of symbolic memory"}
	}
	return uint32(v), nil
}
