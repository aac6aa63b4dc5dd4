package symexec

import "testing"

// TestConcreteStepAllocFree: once its constants are interned, stepping
// a concrete ALU instruction allocates nothing: the fetch reads page
// bytes and every constant comes from the Builder's cache.
func TestConcreteStepAllocFree(t *testing.T) {
	prog := mustAssemble(t, `
_start:
		addi r1, r0, 5
		xor r2, r1, r1
		sw r1, 0x100(r0)
		lw r3, 0x100(r0)
		halt
	`)
	e, err := New(Config{}, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := e.InitialState()
	for pc := prog.Entry; pc < prog.Entry+16; pc += 4 {
		// Warm up: intern the constants and take ownership of the
		// stored-to page.
		if _, err := e.Step(st); err != nil || st.Status != StatusRunning {
			t.Fatalf("warm-up step at %#x: %v %v", pc, err, st.Status)
		}
	}
	for pc := prog.Entry; pc < prog.Entry+16; pc += 4 {
		if n := testing.AllocsPerRun(100, func() {
			st.PC = pc
			if _, err := e.Step(st); err != nil || st.Status != StatusRunning {
				t.Fatalf("step at %#x: %v %v", pc, err, st.Status)
			}
		}); n != 0 {
			t.Fatalf("Step at %#x: %v allocs, want 0", pc, n)
		}
	}
}
