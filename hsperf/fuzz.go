package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"hardsnap/internal/asm"
	"hardsnap/internal/bus"
	"hardsnap/internal/core"
	"hardsnap/internal/fuzz"
	"hardsnap/internal/isa"
	"hardsnap/internal/snapshot"
	"hardsnap/internal/target"
	"hardsnap/internal/vm"
	"hardsnap/internal/vtime"
)

// fuzzExecs is the length of one fuzz_reset job: one single-worker
// campaign of this many executions, each reset by snapshot restore.
// Each exec copies 1 MiB, so a job's time follows the host's memory
// bandwidth from one fraction of a second to the next. A job of about
// 0.8 s averages that out; with 2500-exec jobs the tail of a run's
// CPU time moved by 18% between runs on a shared 2-vCPU VM.
const fuzzExecs = 10000

// fuzzInputLen matches the firmware's two-byte make-symbolic buffer.
const fuzzInputLen = 2

// fuzzRunner runs one fuzz.Run campaign per job. fuzz.Run has no seam
// for timing its layers, so the traced run times a replay rig (see
// rig) that repeats the worker's per-exec call sequence over the
// timing decorator.
type fuzzRunner struct {
	seed int64
	prog *asm.Program
	ref  *jobResult
	// inputs feed the rig: the first job's crash inputs, then seeded
	// random inputs, fuzzExecs in all.
	inputs [][]byte
}

func setupFuzz(seed int64) (*fuzzRunner, error) {
	prog, err := asm.Assemble(fuzzFirmware(seed), 0)
	if err != nil {
		return nil, fmt.Errorf("assemble: %w", err)
	}
	// Set-up ends with one machine built and booted to the snapshot
	// point, as every campaign does before its first execution.
	rg, err := newRig(prog, nil)
	if err != nil {
		return nil, err
	}
	if _, _, err := rg.boot(make([]byte, fuzzInputLen)); err != nil {
		return nil, err
	}
	return &fuzzRunner{seed: seed, prog: prog}, nil
}

// job times one fuzz.Run campaign, counting the heap bytes allocated
// around the timed part only, and checks its outputs.
func (r *fuzzRunner) job() (jobResult, error) {
	alloc0 := allocated()
	start, cpu0 := time.Now(), cpuTime()
	res, err := fuzz.Run(fuzz.Config{
		Program:     r.prog,
		Peripherals: crcPeriph,
		Reset:       fuzz.ResetSnapshot,
		MaxExecs:    fuzzExecs,
		InputLen:    fuzzInputLen,
		Seed:        r.seed,
		Workers:     1,
	})
	wall, cpu := time.Since(start), cpuTime()-cpu0
	alloc := allocated() - alloc0
	if err != nil {
		return jobResult{}, err
	}
	h := sha256.New()
	for _, c := range res.Crashes {
		fmt.Fprintf(h, "%v %#x %d %x\n", c.Stop, c.PC, c.Count, c.Input)
	}
	out := jobResult{
		wall:       wall,
		cpu:        cpu,
		allocBytes: alloc,
		paths:      res.Corpus,
		execs:      res.Execs,
		virtual:    res.VirtTime,
		fingerprint: fmt.Sprintf("execs=%d edges=%d corpus=%d crashes=%d vt=%d sig=%s",
			res.Execs, res.Edges, res.Corpus, len(res.Crashes), res.VirtTime, hex.EncodeToString(h.Sum(nil))[:16]),
		fuzz: res,
	}
	if r.ref == nil {
		r.ref = &out
		r.inputs = r.rigInputs(res)
	}
	if out.fingerprint != r.ref.fingerprint {
		return out, fmt.Errorf("outputs differ from the run's first job: %s, want %s", out.fingerprint, r.ref.fingerprint)
	}
	for _, c := range res.Crashes {
		rg, err := newRig(r.prog, nil)
		if err != nil {
			return out, err
		}
		stop, pc, err := rg.boot(c.Input)
		if err != nil {
			return out, err
		}
		if stop != c.Stop || pc != c.PC {
			return out, fmt.Errorf("crash input %x replayed to %v at %#x, want %v at %#x", c.Input, stop, pc, c.Stop, c.PC)
		}
	}
	return out, nil
}

func (r *fuzzRunner) rigInputs(res *fuzz.Result) [][]byte {
	rng := rand.New(rand.NewSource(r.seed))
	inputs := make([][]byte, 0, fuzzExecs)
	for _, c := range res.Crashes {
		inputs = append(inputs, append([]byte(nil), c.Input...))
	}
	for len(inputs) < fuzzExecs {
		in := make([]byte, fuzzInputLen)
		rng.Read(in)
		inputs = append(inputs, in)
	}
	return inputs
}

// rigJob runs the rig over r.inputs and returns its wall time and a
// fingerprint of every execution's outcome plus the virtual time. The
// outcomes are hashed after the clock stops, so the timed part does
// only what a fuzz worker's executions do.
func (r *fuzzRunner) rigJob(rec *recorder) (time.Duration, string, *rig, error) {
	type outcome struct {
		stop vm.StopReason
		pc   uint32
	}
	outcomes := make([]outcome, 0, len(r.inputs)+1)
	start := time.Now()
	rg, err := newRig(r.prog, rec)
	if err != nil {
		return 0, "", nil, err
	}
	if _, err := rg.snapman.Capture(); err != nil { // the worker's power-on anchor
		return 0, "", nil, err
	}
	stop, pc, err := rg.boot(make([]byte, fuzzInputLen))
	if err != nil {
		return 0, "", nil, err
	}
	outcomes = append(outcomes, outcome{stop, pc})
	for _, in := range r.inputs {
		stop, pc, err := rg.exec(in)
		if err != nil {
			return 0, "", nil, err
		}
		outcomes = append(outcomes, outcome{stop, pc})
	}
	wall := time.Since(start)
	h := sha256.New()
	for _, o := range outcomes {
		fmt.Fprintf(h, "%v %#x\n", o.stop, o.pc)
	}
	fmt.Fprintf(h, "vt %d\n", rg.clock.Now())
	return wall, hex.EncodeToString(h.Sum(nil))[:16], rg, nil
}

// traced runs one untraced campaign, the rig on the bare target, and
// the rig over the timing decorator, and adds the traced rig's layer
// figures to acc. Both rigs must give identical outcomes.
func (r *fuzzRunner) traced(rec *recorder, acc *layerAcc) error {
	job, err := r.job()
	if err != nil {
		return err
	}
	runtime.GC()
	baseWall, baseSig, _, err := r.rigJob(nil)
	if err != nil {
		return err
	}
	runtime.GC()
	rec.resetCounters()
	wall, sig, rg, err := r.rigJob(rec)
	if err != nil {
		return err
	}
	if sig != baseSig {
		return fmt.Errorf("traced rig outcomes %s differ from the bare rig's %s", sig, baseSig)
	}
	execs := float64(len(r.inputs) + 1)
	acc.jobs++
	acc.baseWall = append(acc.baseWall, baseWall.Seconds())
	acc.tracedWall = append(acc.tracedWall, wall.Seconds())
	acc.fuzzPerExec = append(acc.fuzzPerExec, float64(job.wall.Nanoseconds())/float64(job.execs))
	acc.rigPerExec = append(acc.rigPerExec, float64(baseWall.Nanoseconds())/execs)
	acc.addCalls(rec)
	acc.add("vm.exec.self_ns", float64(rg.execSelf))
	acc.add("execs", execs)
	ts := rg.raw.Stats()
	acc.add("target.bytes_moved", float64(ts.SnapshotBytes))
	m := rg.snapman.Stats()
	acc.add("core.saves_skipped", float64(m.SavesSkipped))
	acc.add("core.saves", float64(m.Saves))
	acc.add("core.restores_skipped", float64(m.RestoresSkipped))
	acc.add("core.restores", float64(m.Restores))
	s := rg.snapman.Store().Stats()
	acc.add("snapshot.dedup_hits", float64(s.DedupHits))
	acc.add("snapshot.puts", float64(s.Puts))
	acc.add("snapshot.bytes_shared", float64(s.BytesShared))
	acc.add("snapshot.bytes_stored", float64(s.BytesStored))
	acc.add("fuzz.edges", float64(job.fuzz.Edges))
	acc.add("fuzz.corpus", float64(job.fuzz.Corpus))
	return nil
}

// rig is a concrete machine assembled from public parts the way a fuzz
// worker assembles its own: vm.CPU, a bus.Router over the target's
// ports and a core.SnapshotManager over the target, with an OnEcall
// hook that feeds the input and captures the snapshot at the hint.
// exec repeats the worker's reset-then-step sequence without the
// coverage map and mutator, so a campaign's per-exec wall time minus
// the rig's is the fuzzer's own loop overhead.
type rig struct {
	prog       *asm.Program
	cpu        *vm.CPU
	raw        *target.Target
	tgt        target.Interface
	router     *bus.Router
	snapman    *core.SnapshotManager
	clock      *vtime.Clock
	rec        *recorder
	sampleIRQs bool
	irqBuf     [8]int

	input   []byte
	cpuSnap *vm.Snapshot
	hwSnap  snapshot.ID
	// execSelf is vm.exec time minus the timed target and bus calls
	// inside it (traced rigs only).
	execSelf int64
}

// maxStepsPerExec is fuzz.Config's default per-exec step bound.
const maxStepsPerExec = 50_000

func newRig(prog *asm.Program, rec *recorder) (*rig, error) {
	clock := &vtime.Clock{}
	raw, err := target.NewSimulator("rig", clock, crcPeriph)
	if err != nil {
		return nil, err
	}
	var tgt target.Interface = raw
	if rec != nil {
		tgt = &timedTarget{inner: raw, rec: rec}
	}
	cpu := vm.New(vm.Config{}, nil)
	regions := make([]bus.Region, 0, len(crcPeriph))
	sample := false
	for i, pc := range crcPeriph {
		p, err := tgt.Port(pc.Name)
		if err != nil {
			return nil, err
		}
		regions = append(regions, bus.Region{
			Name: pc.Name,
			Base: cpu.Config().MMIOBase + uint32(i)*core.PeriphRegionSize,
			Size: core.PeriphRegionSize,
			IRQ:  i,
			Port: p,
		})
		sample = sample || raw.IRQWired(pc.Name)
	}
	router, err := bus.NewRouter(regions)
	if err != nil {
		return nil, err
	}
	cpu.SetMMIO(router)
	if err := cpu.Load(prog); err != nil {
		return nil, err
	}
	rg := &rig{
		prog:       prog,
		cpu:        cpu,
		raw:        raw,
		tgt:        tgt,
		router:     router,
		snapman:    core.NewSnapshotManager(snapshot.NewStore(), tgt, router),
		clock:      clock,
		rec:        rec,
		sampleIRQs: sample,
	}
	cpu.OnEcall = rg.ecall
	return rg, nil
}

func (rg *rig) ecall(cp *vm.CPU, service int32) bool {
	switch service {
	case isa.EcallMakeSymbolic:
		addr, length := cp.Regs[1], cp.Regs[2]
		for i := uint32(0); i < length; i++ {
			var b byte
			if int(i) < len(rg.input) {
				b = rg.input[i]
			}
			if err := cp.WriteMem(addr+i, 1, uint32(b)); err != nil {
				cp.Stop = vm.StopFault
				cp.Fault = err
				return true
			}
		}
		return true
	case isa.EcallSnapshotHint:
		if rg.cpuSnap == nil {
			rg.cpuSnap = rg.cpu.Snapshot()
			if id, err := rg.snapman.Capture(); err == nil {
				rg.hwSnap = id
			}
		}
		return true
	}
	return false
}

// boot runs one execution from power-on, capturing the snapshot at the
// hint on the way.
func (rg *rig) boot(input []byte) (vm.StopReason, uint32, error) {
	rg.cpu.Reset()
	if err := rg.cpu.Load(rg.prog); err != nil {
		return 0, 0, err
	}
	return rg.run(input)
}

// exec resets to the snapshot and runs one execution.
func (rg *rig) exec(input []byte) (vm.StopReason, uint32, error) {
	if rg.cpuSnap == nil {
		return 0, 0, fmt.Errorf("rig: no snapshot captured at boot")
	}
	if rg.rec == nil {
		rg.cpu.RestoreSnapshot(rg.cpuSnap)
		if err := rg.snapman.Restore(rg.hwSnap); err != nil {
			return 0, 0, err
		}
		return rg.run(input)
	}
	s := rg.rec.now()
	rg.cpu.RestoreSnapshot(rg.cpuSnap)
	rg.rec.leaf(layerVMRestore, s)
	s = rg.rec.enter(layerSnapmanRestore)
	err := rg.snapman.Restore(rg.hwSnap)
	rg.rec.exit(layerSnapmanRestore, s)
	if err != nil {
		return 0, 0, err
	}
	return rg.run(input)
}

// run steps the CPU to a stop as the fuzz worker's exec loop does:
// one instruction, one virtual VM instruction, one hardware cycle,
// interrupt sampling when a line is wired.
func (rg *rig) run(input []byte) (vm.StopReason, uint32, error) {
	rg.input = input
	var start, before int64
	if rg.rec != nil {
		before = rg.rec.sum(targetLayers) + rg.rec.sum(busLayers)
		start = rg.rec.enter(layerVMExec)
	}
	cpu := rg.cpu
	var steps uint64
	var err error
	for cpu.Stop == vm.StopNone && steps < maxStepsPerExec {
		if !cpu.Step() {
			break
		}
		steps++
		rg.clock.Advance(vtime.VMInstruction)
		if err = rg.tgt.Advance(1); err != nil {
			break
		}
		if rg.sampleIRQs {
			irqs, ierr := rg.router.RisingIRQsInto(rg.irqBuf[:0])
			if ierr != nil {
				err = ierr
				break
			}
			for _, n := range irqs {
				cpu.RaiseIRQ(n)
			}
		}
	}
	if rg.rec != nil {
		busy := rg.rec.busy[layerVMExec]
		rg.rec.exit(layerVMExec, start)
		inner := rg.rec.sum(targetLayers) + rg.rec.sum(busLayers) - before
		rg.execSelf += rg.rec.busy[layerVMExec] - busy - inner
	}
	if err != nil {
		return 0, 0, err
	}
	if cpu.Stop == vm.StopNone {
		cpu.Stop = vm.StopBudget
	}
	return cpu.Stop, cpu.PC, nil
}
