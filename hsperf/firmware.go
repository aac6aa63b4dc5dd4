package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// The firmware generators size each workload so that one job lands
// its wall time in the layer the workload exists to load (see
// README.md). The seed picks constants only: the init-loop length
// (which moves virtual time by at most 63 instructions), the bug's
// magic value and data salts. The number of paths, loop trip counts
// and branch thresholds are fixed, so every seed does the same amount
// of work to within the init loop.

// Sizes of the exploration workloads: 2^k paths each.
const (
	switchBits  = 5  // explore_switch: 32 paths
	switchLoop  = 16 // MMIO iterations per path on the CRC engine
	computeBits = 5  // explore_compute: 32 paths
	computeLoop = 400
	solverBytes = 8 // explore_solver: symbolic bytes, one branch each
)

// prologue is a seeded busy loop before any symbolic input, so virtual
// time differs between seeds while host work barely does.
func prologue(b *strings.Builder, rng *rand.Rand) {
	fmt.Fprintf(b, `
_start:
		addi r10, r0, %d
init:
		addi r10, r10, -1
		bne r10, r0, init
		li r8, 0x40000000
		addi r4, r0, 1
		sw r4, 8(r8)       ; reset the CRC engine
`, 200+rng.Intn(64))
}

// inputBits makes k symbolic bytes at 0x10000, clear of the code, and folds bit 0 of each
// into r7: k branches, 2^k paths, each path with a distinct r7.
func inputBits(b *strings.Builder, k int) {
	fmt.Fprintf(b, `
		li r1, 0x10000
		addi r2, r0, %d
		addi r3, r0, 1
		ecall 1
		addi r7, r0, 0
`, k)
	for i := 0; i < k; i++ {
		fmt.Fprintf(b, `
		lbu r4, %d(r1)
		andi r4, r4, 1
		beq r4, r0, bit%d
		ori r7, r7, %d
bit%d:
`, i, i, 1<<i, i)
	}
}

// bugAt ends every path: the one whose r7 equals magic aborts, the
// rest halt. It gives each job exactly one bug to replay.
func bugAt(b *strings.Builder, magic int) {
	fmt.Fprintf(b, `
		addi r5, r0, %d
		bne r7, r5, done
		abort
done:
		halt
`, magic)
}

// switchFirmware: every path streams path-dependent bytes through the
// CRC engine and reads the digest back, so each path owns distinct
// hardware state and the random searcher context-switches the FPGA on
// nearly every step.
func switchFirmware(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	prologue(&b, rng)
	inputBits(&b, switchBits)
	fmt.Fprintf(&b, `
		li r11, %d
		addi r10, r0, %d
crc:
		add r12, r11, r7
		sw r12, 0(r8)      ; feed one byte to the CRC engine
		lw r6, 4(r8)       ; read the running digest
		xor r11, r11, r6
		addi r10, r10, -1
		bne r10, r0, crc
`, rng.Intn(1<<20), switchLoop)
	bugAt(&b, rng.Intn(1<<switchBits))
	return b.String()
}

// computeFirmware: every path runs a concrete load/add/store loop over
// RAM with no MMIO, so the symbolic executor's concrete memory path
// and term interning are the work.
func computeFirmware(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	prologue(&b, rng)
	inputBits(&b, computeBits)
	fmt.Fprintf(&b, `
		li r13, %d
		li r12, 0x20000
		addi r10, r0, %d
sum:
		lw r5, 0(r12)
		add r5, r5, r13
		add r5, r5, r7
		sw r5, 0(r12)
		addi r12, r12, 4
		addi r10, r10, -1
		bne r10, r0, sum
`, rng.Intn(1<<20), computeLoop)
	bugAt(&b, rng.Intn(1<<computeBits))
	return b.String()
}

// solverFirmware: each symbolic byte feeds a running sum and XOR; an
// unsigned compare of their sum against a fixed threshold branches,
// and both sides continue. Path conditions grow with every byte, so
// the solver is the work. The path that takes every high side aborts.
// Only the prologue is seeded: the solver's effort swings by tens of
// percent with the constants in the path conditions, which would make
// the seed change the amount of work.
func solverFirmware(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	prologue(&b, rng)
	fmt.Fprintf(&b, `
		li r1, 0x10000
		addi r2, r0, %d
		addi r3, r0, 1
		ecall 1
		addi r7, r0, 0
		addi r9, r0, 0
		addi r11, r0, 0
`, solverBytes)
	for i := 0; i < solverBytes; i++ {
		fmt.Fprintf(&b, `
		lbu r4, %d(r1)
		add r7, r7, r4
		xor r9, r9, r4
		add r5, r7, r9
		addi r6, r0, %d
		bltu r5, r6, low%d
		addi r11, r11, 1
low%d:
`, i, 128*(i+1), i, i)
	}
	fmt.Fprintf(&b, `
		addi r6, r0, %d
		bne r11, r6, done
		abort
done:
		halt
`, solverBytes)
	return b.String()
}

// fuzzMagics are the fuzzer's nonzero "interesting" mutation bytes: a
// magic drawn from them is found within a few hundred executions on
// every seed, so every job has a crash to replay and the same corpus.
var fuzzMagics = []int{0xFF, 0x7F, 0x80, 0x41, 0x0A}

// fuzzFirmware is the E18 crash firmware with seeded constants: device
// bring-up, the snapshot hint, a two-byte input streamed through the
// CRC engine, and an abort when the first byte equals magic.
func fuzzFirmware(seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	return fmt.Sprintf(`
_start:
		addi r10, r0, %d
init:
		addi r10, r10, -1
		bne r10, r0, init
		li r8, 0x40000000
		addi r4, r0, 1
		sw r4, 8(r8)
		ecall 6
		li r1, 0x800
		addi r2, r0, 2
		addi r3, r0, 1
		ecall 1
		lbu r4, 0(r1)
		sw r4, 0(r8)
poll:
		lw r5, 12(r8)
		bne r5, r0, poll
		lbu r4, 0(r1)
		addi r5, r0, %d
		bne r4, r5, ok
		abort
ok:
		halt
`, 400+rng.Intn(64), fuzzMagics[rng.Intn(len(fuzzMagics))])
}
