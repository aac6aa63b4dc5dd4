package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"hardsnap/internal/asm"
	"hardsnap/internal/core"
	"hardsnap/internal/expr"
	"hardsnap/internal/symexec"
	"hardsnap/internal/target"
	"hardsnap/internal/vtime"
)

var crcPeriph = []target.PeriphConfig{{Name: "crc0", Periph: "crc32"}}

// exploreSpec is one exploration workload: firmware, vehicle and
// searcher. Every job explores the whole tree with one engine worker.
type exploreSpec struct {
	firmware func(seed int64) string
	fpga     bool
	// random selects the seeded random searcher; DFS otherwise.
	random bool
}

// exploreRunner runs one exploration per job on a freshly built
// analysis, as a user running the tool once per firmware would.
type exploreRunner struct {
	spec exploreSpec
	seed int64
	prog *asm.Program
	ref  *jobResult // the run's first job
}

func setupExplore(spec exploreSpec, seed int64) (*exploreRunner, error) {
	prog, err := asm.Assemble(spec.firmware(seed), 0)
	if err != nil {
		return nil, fmt.Errorf("assemble: %w", err)
	}
	r := &exploreRunner{spec: spec, seed: seed, prog: prog}
	// Set-up ends with one analysis built, so its cost (target
	// construction, executor image copy) is part of setup_s.
	if _, err := r.analysis(nil); err != nil {
		return nil, err
	}
	return r, nil
}

// analysis builds a fresh target, executor and engine. With rec set,
// the target is wrapped in the timing decorator and handed to the
// engine through SetupConfig.Target.
func (r *exploreRunner) analysis(rec *recorder) (*core.Analysis, error) {
	var search symexec.Searcher = symexec.DFS{}
	if r.spec.random {
		search = symexec.NewRandom(r.seed)
	}
	cfg := core.SetupConfig{
		Peripherals: crcPeriph,
		FPGA:        r.spec.fpga,
		Engine:      core.Config{Mode: core.ModeHardSnap, Searcher: search, Workers: 1},
	}
	if rec != nil {
		clock := &vtime.Clock{}
		var tgt *target.Target
		var err error
		if r.spec.fpga {
			tgt, err = target.NewFPGA("fpga0", clock, crcPeriph, false)
		} else {
			tgt, err = target.NewSimulator("sim0", clock, crcPeriph)
		}
		if err != nil {
			return nil, err
		}
		cfg.Target = &timedTarget{inner: tgt, rec: rec}
	}
	return core.SetupProgram(cfg, r.prog)
}

// run builds an analysis (untimed) and times one exploration: in wall
// time from the recorder when traced, in wall and CPU time otherwise.
// The heap bytes allocated are counted around the timed part only.
func (r *exploreRunner) run(rec *recorder) (*core.Analysis, *core.Report, jobResult, error) {
	a, err := r.analysis(rec)
	if err != nil {
		return nil, nil, jobResult{}, err
	}
	var rep *core.Report
	var wall, cpu time.Duration
	alloc0 := allocated()
	if rec != nil {
		start := rec.enter(layerRun)
		rep, err = a.Engine.Run()
		rec.exit(layerRun, start)
		wall = time.Duration(rec.busy[layerRun])
	} else {
		start, cpu0 := time.Now(), cpuTime()
		rep, err = a.Engine.Run()
		wall, cpu = time.Since(start), cpuTime()-cpu0
	}
	alloc := allocated() - alloc0
	if err != nil {
		return nil, nil, jobResult{}, err
	}
	res := exploreResult(rep, wall)
	res.allocBytes = alloc
	res.cpu = cpu
	return a, rep, res, nil
}

func (r *exploreRunner) job() (jobResult, error) {
	a, rep, res, err := r.run(nil)
	if err != nil {
		return jobResult{}, err
	}
	return res, r.check(a, rep, res)
}

// check compares a job's outputs with the run's first job and replays
// every bug concretely on fresh hardware.
func (r *exploreRunner) check(a *core.Analysis, rep *core.Report, res jobResult) error {
	if r.ref == nil {
		r.ref = &res
	}
	if res.fingerprint != r.ref.fingerprint {
		return fmt.Errorf("outputs differ from the run's first job: %s, want %s", res.fingerprint, r.ref.fingerprint)
	}
	bugs := rep.Bugs()
	if len(bugs) == 0 {
		return fmt.Errorf("exploration found no bug")
	}
	for _, bug := range bugs {
		rr, err := a.Replay(bug)
		if err != nil {
			return fmt.Errorf("replay of bug %d: %w", bug.ID, err)
		}
		// The concrete VM stops with PC past the stopping ecall; the
		// symbolic state keeps the ecall's own PC.
		if !rr.Reproduced || rr.PC != bug.PC+4 {
			return fmt.Errorf("replay of bug %d stopped %v at %#x, want %v at %#x+4", bug.ID, rr.Stop, rr.PC, bug.Status, bug.PC)
		}
	}
	return nil
}

// exploreResult fingerprints a report: every finished path (status,
// PC, steps, in finish order), every bug with its model, and the
// virtual time.
func exploreResult(rep *core.Report, wall time.Duration) jobResult {
	h := sha256.New()
	for _, st := range rep.Finished {
		fmt.Fprintf(h, "%d:%d:%#x:%d\n", st.ID, st.Status, st.PC, st.Steps)
	}
	for _, bug := range rep.Bugs() {
		fmt.Fprintf(h, "bug %d %v\n", bug.ID, sortedModel(bug.Model))
	}
	fmt.Fprintf(h, "vt %d\n", rep.VirtualTime)
	return jobResult{
		wall:        wall,
		execs:       len(rep.Finished),
		paths:       len(rep.Finished),
		virtual:     rep.VirtualTime,
		fingerprint: fmt.Sprintf("paths=%d bugs=%d vt=%d sig=%s", len(rep.Finished), len(rep.Bugs()), rep.VirtualTime, hex.EncodeToString(h.Sum(nil))[:16]),
	}
}

// traced runs an untraced job as the overhead baseline, then the same
// job over the timing decorator, and adds the traced job's layer
// figures to acc. The traced job must reproduce the untraced outputs
// exactly.
func (r *exploreRunner) traced(rec *recorder, acc *layerAcc) error {
	base, err := r.job()
	if err != nil {
		return err
	}
	runtime.GC()
	rec.resetCounters()
	a, rep, res, err := r.run(rec)
	if err != nil {
		return err
	}
	if err := r.check(a, rep, res); err != nil {
		return fmt.Errorf("traced job: %w", err)
	}
	residual := rec.busy[layerRun] - rec.sum(targetLayers) - rec.sum(busLayers) - rep.Solver.WallNS
	if residual < 0 {
		return fmt.Errorf("negative core residual %d ns: timed layers overlap", residual)
	}
	acc.jobs++
	acc.baseWall = append(acc.baseWall, base.wall.Seconds())
	acc.tracedWall = append(acc.tracedWall, res.wall.Seconds())
	acc.addCalls(rec)
	acc.add("core.residual_ns", float64(residual))
	acc.add("target.bytes_moved", float64(rep.Snapshots.BytesMoved))
	acc.add("core.context_switches", float64(rep.Stats.ContextSwitches))
	m := rep.Snapshots.Manager
	acc.add("core.saves_skipped", float64(m.SavesSkipped))
	acc.add("core.saves", float64(m.Saves))
	acc.add("core.restores_skipped", float64(m.RestoresSkipped))
	acc.add("core.restores", float64(m.Restores))
	acc.add("symexec.instructions", float64(rep.Exec.Instructions))
	acc.add("symexec.forks", float64(rep.Exec.Forks))
	s := rep.Snapshots.Store
	acc.add("snapshot.dedup_hits", float64(s.DedupHits))
	acc.add("snapshot.puts", float64(s.Puts))
	acc.add("snapshot.bytes_shared", float64(s.BytesShared))
	acc.add("snapshot.bytes_stored", float64(s.BytesStored))
	acc.add("solver.queries", float64(rep.Solver.Queries))
	acc.add("solver.busy_ns", float64(rep.Solver.WallNS))
	acc.add("solver.sat_effort", float64(rep.Solver.Conflicts+rep.Solver.Propagations))
	acc.add("solver.cache_hits", float64(rep.SolverCache.Hits))
	acc.add("solver.cache_lookups", float64(rep.SolverCache.Hits+rep.SolverCache.Misses))
	return nil
}

func sortedModel(m expr.Assignment) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%#x ", n, m[n])
	}
	return b.String()
}
