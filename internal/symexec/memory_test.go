package symexec

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"hardsnap/internal/expr"
	"hardsnap/internal/vm"
)

// refMemory is the byte-per-term overlay memory that the paged Memory
// replaced, kept as the differential oracle: a shared concrete backing
// plus a per-state map holding a term for every stored byte. It
// differs from the original in one place only: InRange computes in 64
// bits, where the original's 32-bit sum wrapped and let an access at
// the top of the address space index past the backing and panic.
type refMemory struct {
	base    uint32
	backing []byte
	overlay map[uint32]*expr.Term
}

func newRefMemory(base uint32, image []byte) *refMemory {
	return &refMemory{base: base, backing: image, overlay: make(map[uint32]*expr.Term)}
}

func (m *refMemory) Clone() *refMemory {
	o := make(map[uint32]*expr.Term, len(m.overlay))
	for k, v := range m.overlay {
		o[k] = v
	}
	return &refMemory{base: m.base, backing: m.backing, overlay: o}
}

func (m *refMemory) InRange(addr uint32, size uint32) bool {
	return addr >= m.base && uint64(addr-m.base)+uint64(size) <= uint64(len(m.backing))
}

func (m *refMemory) OverlaySize() int { return len(m.overlay) }

func (m *refMemory) LoadByte(b *expr.Builder, addr uint32) (*expr.Term, error) {
	if !m.InRange(addr, 1) {
		return nil, &vm.FaultError{Addr: addr, Msg: "symbolic load outside RAM"}
	}
	if t, ok := m.overlay[addr]; ok {
		return t, nil
	}
	return b.Const(uint64(m.backing[addr-m.base]), 8), nil
}

func (m *refMemory) StoreByte(addr uint32, t *expr.Term) error {
	if !m.InRange(addr, 1) {
		return &vm.FaultError{Addr: addr, Msg: "symbolic store outside RAM"}
	}
	if t.Width() != 8 {
		return fmt.Errorf("symexec: StoreByte with width %d", t.Width())
	}
	m.overlay[addr] = t
	return nil
}

func (m *refMemory) Read(b *expr.Builder, addr uint32, size int) (*expr.Term, error) {
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

func (m *refMemory) Write(b *expr.Builder, addr uint32, size int, t *expr.Term) error {
	for i := 0; i < size; i++ {
		if err := m.StoreByte(addr+uint32(i), b.Extract(t, uint(8*i), 8)); err != nil {
			return err
		}
	}
	return nil
}

func (m *refMemory) ConcreteWord(b *expr.Builder, addr uint32) (uint32, error) {
	t, err := m.Read(b, addr, 4)
	if err != nil {
		return 0, err
	}
	v, ok := t.Const()
	if !ok {
		return 0, &vm.FaultError{Addr: addr, Msg: "fetch of symbolic memory"}
	}
	return uint32(v), nil
}

// sameErr reports whether two memory errors agree: both nil, or equal
// FaultErrors (PC, Addr and Msg), or other errors with equal text.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	var fa, fb *vm.FaultError
	if errors.As(a, &fa) != errors.As(b, &fb) {
		return false
	}
	if fa != nil {
		return *fa == *fb
	}
	return a.Error() == b.Error()
}

// memTape decodes a byte string into memory operations. Reads past the
// end yield zero; done reports exhaustion.
type memTape struct {
	buf []byte
	pos int
}

func (t *memTape) done() bool { return t.pos >= len(t.buf) }

func (t *memTape) next() byte {
	if t.done() {
		return 0
	}
	t.pos++
	return t.buf[t.pos-1]
}

func (t *memTape) u32() uint32 {
	return uint32(t.next()) | uint32(t.next())<<8 | uint32(t.next())<<16 | uint32(t.next())<<24
}

// memDiff runs one tape against the paged Memory and the reference in
// lockstep and returns the first disagreement. RAM is small (three
// pages, an all-zero one among them, plus a partial fourth) so
// addresses drawn near page boundaries, the ends of RAM and the top of
// the address space exercise every straddling and fault path.
type memDiff struct {
	b       *expr.Builder
	mems    []*Memory
	refs    []*refMemory
	anchors []uint32
	vars    []*expr.Term
}

const (
	diffRAMSize = 3*pageSize + 100
	diffMaxMems = 8
)

func newMemDiff(tape *memTape) *memDiff {
	base := uint32(0)
	if tape.next()&1 != 0 {
		base = 0x3000
	}
	image := make([]byte, diffRAMSize)
	for i := range image {
		if i/pageSize != 1 { // page 1 stays all-zero
			image[i] = byte(i*7 + 3)
		}
	}
	d := &memDiff{
		b:    expr.NewBuilder(),
		mems: []*Memory{NewMemory(base, image)},
		refs: []*refMemory{newRefMemory(base, append([]byte(nil), image...))},
	}
	for k := uint32(0); k <= diffRAMSize/pageSize; k++ {
		d.anchors = append(d.anchors, base+k*pageSize)
	}
	d.anchors = append(d.anchors, base+diffRAMSize, 0, 0xFFFFFFFF)
	for i := 0; i < 6; i++ {
		d.vars = append(d.vars, d.b.Var(fmt.Sprintf("m%d", i), 8))
	}
	return d
}

// addr draws an address within a few bytes of an anchor.
func (d *memDiff) addr(tape *memTape) uint32 {
	a := d.anchors[int(tape.next())%len(d.anchors)]
	return a + uint32(int32(tape.next()%24)-12)
}

func (d *memDiff) size(tape *memTape) int { return []int{1, 2, 4}[tape.next()%3] }

// byteTerm draws an 8-bit term: a constant or a symbolic expression.
func (d *memDiff) byteTerm(tape *memTape) *expr.Term {
	c := tape.next()
	v := d.vars[int(c>>2)%len(d.vars)]
	switch c % 4 {
	case 0, 1:
		return d.b.Const(uint64(tape.next()), 8)
	case 2:
		return v
	default:
		return d.b.Add(v, d.b.Const(uint64(tape.next()), 8))
	}
}

// wordTerm draws a term of width 8*size: constant, fully symbolic, or
// mixed so that some of its bytes extract to constants.
func (d *memDiff) wordTerm(tape *memTape, size int) *expr.Term {
	w := uint(8 * size)
	c := tape.next()
	v := d.vars[int(c>>2)%len(d.vars)]
	if w == 8 {
		if c%2 == 0 {
			return d.b.Const(uint64(tape.next()), 8)
		}
		return d.byteTerm(tape)
	}
	switch c % 4 {
	case 0:
		return d.b.Const(uint64(tape.u32()), w)
	case 1:
		return d.b.ZExt(v, w)
	case 2:
		return d.b.Concat(d.b.Const(uint64(tape.u32()), w-8), v)
	default:
		return d.b.Concat(v, d.b.Const(uint64(tape.u32()), w-8))
	}
}

func (d *memDiff) checkSize(i int, op string) error {
	if got, want := d.mems[i].OverlaySize(), d.refs[i].OverlaySize(); got != want {
		return fmt.Errorf("mem %d after %s: OverlaySize %d, reference %d", i, op, got, want)
	}
	return nil
}

func (d *memDiff) compareRead(i int, addr uint32, size int) error {
	got, gerr := d.mems[i].Read(d.b, addr, size)
	want, werr := d.refs[i].Read(d.b, addr, size)
	if got != want || !sameErr(gerr, werr) {
		return fmt.Errorf("mem %d Read(%#x, %d) = %v, %v; reference %v, %v", i, addr, size, got, gerr, want, werr)
	}
	return nil
}

// isolated checks that a write to mem i at [addr, addr+size) left
// every other memory reading what its reference reads.
func (d *memDiff) isolated(i int, addr uint32, size int) error {
	for j := range d.mems {
		if j == i {
			continue
		}
		if err := d.compareRead(j, addr, size); err != nil {
			return fmt.Errorf("write to mem %d leaked: %w", i, err)
		}
	}
	return nil
}

func (d *memDiff) step(tape *memTape) error {
	op := tape.next()
	i := int(tape.next()) % len(d.mems)
	m, r := d.mems[i], d.refs[i]
	switch op % 6 {
	case 0:
		addr, t := d.addr(tape), d.byteTerm(tape)
		if tape.next()%16 == 0 {
			t = d.b.ZExt(t, 16) // width error path
		}
		gerr, werr := m.StoreByte(addr, t), r.StoreByte(addr, t)
		if !sameErr(gerr, werr) {
			return fmt.Errorf("mem %d StoreByte(%#x, %v) = %v; reference %v", i, addr, t, gerr, werr)
		}
		if err := d.isolated(i, addr, 1); err != nil {
			return err
		}
		return d.checkSize(i, "StoreByte")
	case 1:
		addr, size := d.addr(tape), d.size(tape)
		t := d.wordTerm(tape, size)
		gerr, werr := m.Write(d.b, addr, size, t), r.Write(d.b, addr, size, t)
		if !sameErr(gerr, werr) {
			return fmt.Errorf("mem %d Write(%#x, %d, %v) = %v; reference %v", i, addr, size, t, gerr, werr)
		}
		if err := d.isolated(i, addr, size); err != nil {
			return err
		}
		return d.checkSize(i, "Write")
	case 2:
		return d.compareRead(i, d.addr(tape), d.size(tape))
	case 3:
		addr := d.addr(tape)
		got, gerr := m.ConcreteWord(addr)
		want, werr := r.ConcreteWord(d.b, addr)
		if got != want || !sameErr(gerr, werr) {
			return fmt.Errorf("mem %d ConcreteWord(%#x) = %#x, %v; reference %#x, %v", i, addr, got, gerr, want, werr)
		}
	case 4:
		addr := d.addr(tape)
		got, gerr := m.LoadByte(d.b, addr)
		want, werr := r.LoadByte(d.b, addr)
		if got != want || !sameErr(gerr, werr) {
			return fmt.Errorf("mem %d LoadByte(%#x) = %v, %v; reference %v, %v", i, addr, got, gerr, want, werr)
		}
	case 5:
		// Fork: the clone takes a new slot or replaces another memory.
		c, rc := m.Clone(), r.Clone()
		j := len(d.mems)
		if j < diffMaxMems {
			d.mems, d.refs = append(d.mems, c), append(d.refs, rc)
		} else {
			j = int(tape.next()) % len(d.mems)
			d.mems[j], d.refs[j] = c, rc
		}
		return d.checkSize(j, "Clone")
	}
	return nil
}

// sweep compares every byte near every anchor in every memory.
func (d *memDiff) sweep() error {
	for i := range d.mems {
		for _, a := range d.anchors {
			for k := int32(-16); k < 16; k++ {
				if err := d.compareRead(i, a+uint32(k), 1); err != nil {
					return err
				}
			}
		}
		if err := d.checkSize(i, "sweep"); err != nil {
			return err
		}
	}
	return nil
}

func runMemTape(buf []byte) error {
	tape := &memTape{buf: buf}
	d := newMemDiff(tape)
	for n := 0; !tape.done(); n++ {
		if err := d.step(tape); err != nil {
			return fmt.Errorf("op %d: %w", n, err)
		}
	}
	return d.sweep()
}

// memOps is a generated operation tape for testing/quick.
type memOps []byte

func (memOps) Generate(r *rand.Rand, size int) reflect.Value {
	buf := make([]byte, 64+r.Intn(1024))
	r.Read(buf)
	return reflect.ValueOf(memOps(buf))
}

// TestMemoryMatchesReference: over random operation sequences the
// paged Memory returns pointer-identical terms, identical faults and
// identical OverlaySize to the byte-per-term reference, and a write to
// one clone is never visible in another.
func TestMemoryMatchesReference(t *testing.T) {
	var failure error
	prop := func(ops memOps) bool {
		failure = runMemTape(ops)
		return failure == nil
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatalf("%v\n%v", err, failure)
	}
}

// FuzzMemoryOps is the same differential as TestMemoryMatchesReference
// as a native fuzz target.
func FuzzMemoryOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 3, 4, 1, 2, 0, 5, 1, 9, 0})
	f.Add([]byte{1, 5, 0, 6, 30, 2, 1, 1, 2, 0, 8, 18, 5, 0, 3, 0, 8, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if err := runMemTape(ops); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMemoryFaultOrder pins the fault contract directly: a read or
// fetch running off the end of RAM faults at its highest byte outside
// RAM, a write stores its in-range prefix and faults at its first
// byte outside, and a symbolic fetch faults at the word address.
func TestMemoryFaultOrder(t *testing.T) {
	b := expr.NewBuilder()
	m := NewMemory(0x1000, make([]byte, 2*pageSize))
	end := uint32(0x1000 + 2*pageSize)
	want := func(err error, addr uint32, msg string) {
		t.Helper()
		var fe *vm.FaultError
		if !errors.As(err, &fe) || fe.Addr != addr || fe.Msg != msg {
			t.Fatalf("error %v, want fault at %#x %q", err, addr, msg)
		}
	}
	_, err := m.Read(b, end-2, 4)
	want(err, end+1, "symbolic load outside RAM")
	_, err = m.ConcreteWord(end - 1)
	want(err, end+2, "symbolic load outside RAM")
	_, err = m.ConcreteWord(0xFFFFFFFE)
	want(err, 0x1, "symbolic load outside RAM")
	err = m.Write(b, end-2, 4, b.Const(0xAABBCCDD, 32))
	want(err, end, "symbolic store outside RAM")
	if got, _ := m.Read(b, end-2, 2); got != b.Const(0xCCDD, 16) {
		t.Fatalf("in-range prefix of a faulting write: %v", got)
	}
	if err := m.StoreByte(0x1802, b.Var("s", 8)); err != nil {
		t.Fatal(err)
	}
	_, err = m.ConcreteWord(0x1800)
	want(err, 0x1800, "fetch of symbolic memory")
}

// TestMemoryCopyOnWrite: clones share pages until one writes, the
// program image is shared by every initial state, and all-zero pages
// are never materialised.
func TestMemoryCopyOnWrite(t *testing.T) {
	b := expr.NewBuilder()
	image := make([]byte, 4*pageSize)
	image[pageSize+5] = 9
	m := NewMemory(0, image)
	if m.pages[0] != nil || m.pages[1] == nil || m.pages[2] != nil {
		t.Fatal("NewMemory must copy exactly the non-zero pages")
	}
	c := m.Clone()
	if c.pages[1] != m.pages[1] {
		t.Fatal("clone does not share pages")
	}
	if err := c.Write(b, pageSize+5, 1, b.Const(7, 8)); err != nil {
		t.Fatal(err)
	}
	if c.pages[1] == m.pages[1] {
		t.Fatal("write to a shared page did not copy it")
	}
	if v, _ := m.ConcreteWord(pageSize + 4); v != 9<<8 {
		t.Fatalf("parent sees the clone's write: %#x", v)
	}
	shared := c.pages[1]
	if err := c.Write(b, pageSize+6, 1, b.Const(1, 8)); err != nil {
		t.Fatal(err)
	}
	if c.pages[1] != shared {
		t.Fatal("an owned page was copied again")
	}

	prog := mustAssemble(t, "_start:\n\thalt\n")
	e, err := New(Config{}, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := e.InitialState(), e.Spawn(1<<20).InitialState()
	if s1.Mem.pages[0] == nil || s1.Mem.pages[0] != s2.Mem.pages[0] {
		t.Fatal("initial states do not share the program image page")
	}
	for _, p := range s1.Mem.pages[1:] {
		if p != nil {
			t.Fatal("an all-zero page was materialised")
		}
	}
}

// TestMemoryConcurrentClones: goroutines cloning one source and writing
// to their clones (the parallel engine's replayed seed attempts) each
// see only their own writes and leave the source unchanged. Run under
// the race detector by make race.
func TestMemoryConcurrentClones(t *testing.T) {
	b := expr.NewBuilder()
	src := NewMemory(0, make([]byte, 4*pageSize))
	// The source owns the page it wrote; the first clones take that
	// ownership away concurrently.
	if err := src.Write(b, 0x10, 4, b.Const(0x11223344, 32)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := src.Clone()
			for k := 0; k < 64; k++ {
				addr := uint32(k * 61 % (4 * pageSize))
				if err := c.Write(b, addr, 1, b.Const(uint64(g), 8)); err != nil {
					errs <- err
					return
				}
				if v, _ := c.LoadByte(b, addr); v != b.Const(uint64(g), 8) {
					errs <- fmt.Errorf("clone %d lost its write at %#x", g, addr)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if v, _ := src.ConcreteWord(0x10); v != 0x11223344 || src.OverlaySize() != 4 {
		t.Fatalf("source changed: %#x, overlay %d", v, src.OverlaySize())
	}
	for k := 0; k < 64; k++ {
		addr := uint32(k * 61 % (4 * pageSize))
		if v, _ := src.LoadByte(b, addr); v != b.Const(0, 8) {
			t.Fatalf("source sees a clone's write at %#x: %v", addr, v)
		}
	}
}

// TestTopOfAddressSpaceFaults: a load or store whose end wraps past
// 2^32 back into RAM faults the state instead of indexing past RAM.
func TestTopOfAddressSpaceFaults(t *testing.T) {
	for _, src := range []string{"lb r2, -1(r0)\nhalt", "lw r2, -2(r0)\nhalt", "sw r2, -1(r0)\nhalt"} {
		finished := explore(t, src, Config{})
		var fe *vm.FaultError
		if len(finished) != 1 || finished[0].Status != StatusFault || !errors.As(finished[0].Err, &fe) {
			t.Fatalf("%q: %v %v", src, finished[0].Status, finished[0].Err)
		}
	}
}
