// Command hsperf is the repository's wall-clock benchmark. It runs one
// workload for a fixed time, checks every job's outputs, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics of
// a traced run) by name with their units, ending with one JSON line.
// See README.md for the workloads and metrics.
//
//	hsperf --workload NAME --seed N --seconds S --trace 0|1
//	hsperf compare BASE_DIR CHANGE_DIR
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"hardsnap/internal/fuzz"
)

// runner is one workload's set-up product.
type runner interface {
	// job runs and checks one untraced job.
	job() (jobResult, error)
	// traced runs one round of the traced run and adds its layer
	// figures to acc.
	traced(rec *recorder, acc *layerAcc) error
}

// jobResult is one job's timed part and checked outputs.
type jobResult struct {
	// wall is the host wall time of the timed part; cpu is the CPU
	// time the process spent in it. Untraced jobs set both, traced
	// jobs only wall.
	wall, cpu time.Duration
	// paths counts completed paths: finished states of an
	// exploration, corpus entries (AFL's "paths") of a campaign.
	paths int
	// execs counts firmware executions run to a stop: every finished
	// path of an exploration, every exec of a campaign.
	execs       int
	virtual     time.Duration
	allocBytes  uint64
	fingerprint string
	fuzz        *fuzz.Result
}

type workload struct {
	name  string
	setup func(seed int64) (runner, error)
	// dominant is the share of traced job wall time spent in the layer
	// this workload exists to load.
	dominant func(a *layerAcc) float64
	// calibCopies is the number of 1 MiB copies in the workload's
	// calibration kernel (see calibRef). A copy's time moves with the
	// host's memory bandwidth, which fuzz_reset's jobs, mostly the
	// 1 MiB snapshot copy, follow and the explorations do not: over
	// four runs on a shared 2-vCPU VM, explore_switch's scaled median
	// spread by 19% with 200 copies in its kernel and by 7% without.
	calibCopies int
}

var workloads = []workload{
	{
		name: "explore_switch",
		setup: func(seed int64) (runner, error) {
			return setupExplore(exploreSpec{firmware: switchFirmware, fpga: true, random: true}, seed)
		},
		dominant: func(a *layerAcc) float64 {
			return ratio(a.sums["target.save.busy_ns"]+a.sums["target.restore.busy_ns"], a.sums["core.run.busy_ns"])
		},
	},
	{
		name: "explore_compute",
		setup: func(seed int64) (runner, error) {
			return setupExplore(exploreSpec{firmware: computeFirmware}, seed)
		},
		dominant: func(a *layerAcc) float64 {
			return ratio(a.sums["core.residual_ns"], a.sums["core.run.busy_ns"])
		},
	},
	{
		name: "explore_solver",
		setup: func(seed int64) (runner, error) {
			return setupExplore(exploreSpec{firmware: solverFirmware}, seed)
		},
		dominant: func(a *layerAcc) float64 {
			return ratio(a.sums["solver.busy_ns"], a.sums["core.run.busy_ns"])
		},
	},
	{
		name: "fuzz_reset",
		setup: func(seed int64) (runner, error) {
			return setupFuzz(seed)
		},
		dominant: func(a *layerAcc) float64 {
			perExec := ratio(a.sums["vm.restore_snapshot.busy_ns"], a.sums["execs"])
			return ratio(perExec, median(a.fuzzPerExec))
		},
		calibCopies: 200,
	},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "hsperf compare:", err)
			os.Exit(2)
		}
		return
	}
	fs := flag.NewFlagSet("hsperf", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measuring time in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run")
	fs.Parse(os.Args[1:])

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "hsperf: need --workload (%s), --seconds >= 1, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	// Every workload runs one worker. With a single P the process's
	// CPU time, which times set-up and jobs, is the job's own work plus
	// its garbage collection: no idle P runs idle-priority mark workers
	// that would burn CPU time the job did not need.
	runtime.GOMAXPROCS(1)
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hsperf:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hsperf:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics in print order.
type report struct {
	names []string
	m     map[string]metric
	notes map[string]string
}

func (r *report) set(name string, v float64, unit, note string) {
	if r.m == nil {
		r.m, r.notes = map[string]metric{}, map[string]string{}
	}
	if _, ok := r.m[name]; !ok {
		r.names = append(r.names, name)
	}
	r.m[name] = metric{Value: v, Unit: unit}
	r.notes[name] = note
}

func (r *report) print(out io.Writer) {
	for _, n := range r.names {
		m := r.m[n]
		fmt.Fprintf(out, "  %-34s %16.6g %-6s %s\n", n, m.Value, m.Unit, r.notes[n])
	}
}

// run sets the workload up, runs one reference job, then measures for
// the given time.
func run(w *workload, seed int64, measure time.Duration, traced bool, out io.Writer) (*result, error) {
	setup := func() (runner, float64, error) {
		debug.FreeOSMemory()
		start := cpuTime()
		r, err := w.setup(seed)
		if err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		return r, (cpuTime() - start).Seconds(), nil
	}
	r, _, err := setup()
	if err != nil {
		return nil, err
	}

	res := &result{}
	fail := func(err error) {
		res.Failed++
		fmt.Fprintf(os.Stderr, "hsperf: %s job %d: %v\n", w.name, res.Attempted, err)
	}
	// The reference job: later jobs must reproduce its outputs.
	res.Attempted++
	ref, err := r.job()
	if err != nil {
		fail(err)
	}

	rep := &report{}
	if traced {
		if err := measureTraced(w, r, seed, measure, res, fail, rep); err != nil {
			return nil, err
		}
	} else if err := measureUntraced(r, setup, w.calibCopies, measure, res, fail, rep); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	res.Metrics = rep.m
	fmt.Fprintf(out, "hsperf: workload=%s seed=%d trace=%v attempted=%d failed=%d fail_ratio=%g\n  outputs: %s\n",
		w.name, seed, traced, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted), ref.fingerprint)
	rep.print(out)
	return res, nil
}

// measureUntraced alternates a timed set-up with a timed job until the
// measuring time is up. Set-up is sampled across the whole run, like
// the jobs, so that both see the same host conditions.
//
// Set-up and jobs are timed in process CPU time, which leaves out the
// time the process waits for a CPU on a shared host, and scaled to the
// reference host by the calibration kernel run before and after each
// set-up and job (see calibRef). The unscaled median CPU and wall
// times are printed next to job_s.p50.
func measureUntraced(r runner, setup func() (runner, float64, error), calibCopies int, measure time.Duration,
	res *result, fail func(error), rep *report) error {
	var setups, jobs, cpus, walls, pathRates, execRates, allocs, calibs []float64
	var virtual float64
	cal := newCalibrator(calibCopies)
	calib := func() float64 {
		runtime.GC()
		c := cal.run().Seconds()
		calibs = append(calibs, c)
		return c
	}
	before := calib()
	start := time.Now()
	for attempts := 0; attempts == 0 || time.Since(start) < measure; attempts++ {
		_, st, err := setup()
		if err != nil {
			return err
		}
		res.Attempted++
		runtime.GC()
		j, jerr := r.job()
		after := calib()
		scale := 2 * calibRef.Seconds() / (before + after)
		before = after
		setups = append(setups, st*scale)
		if jerr != nil {
			fail(jerr)
			continue
		}
		s := j.cpu.Seconds() * scale
		jobs = append(jobs, s)
		cpus = append(cpus, j.cpu.Seconds())
		walls = append(walls, j.wall.Seconds())
		pathRates = append(pathRates, float64(j.paths)/s)
		execRates = append(execRates, float64(j.execs)/s)
		allocs = append(allocs, float64(j.allocBytes)/1e6)
		virtual = j.virtual.Seconds()
	}
	cal = nil // its buffers must not count in peak_rss_mb
	tail, pct := tailOf(jobs)
	n := len(jobs)
	rep.set("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups; calibration kernel p50 %.4g s", len(setups), median(calibs)))
	rep.set("job_s.p50", median(jobs), "s", fmt.Sprintf("n=%d; unscaled p50 %.6g s CPU, %.6g s wall", n, median(cpus), median(walls)))
	rep.set("job_s.tail", tail, "s", fmt.Sprintf("p%.1f, %d of n=%d beyond", pct, n-int(math.Round(pct*float64(n)/100)), n))
	rep.set("paths_per_s", median(pathRates), "1/s", "")
	rep.set("execs_per_s", median(execRates), "1/s", "")
	rep.set("virtual_s_per_job", virtual, "s", "cost-model time")
	rep.set("alloc_mb_per_job", median(allocs), "MB", "")
	rss := jobPeakRSS(r, res, fail)
	rep.set("peak_rss_mb", rss, "MB", fmt.Sprintf("median of %d jobs from a scavenged heap", rssJobs))
	return nil
}

// rssJobs is how many extra jobs, after the timed ones, measure the
// resident set.
const rssJobs = 5

// jobPeakRSS runs rssJobs jobs, each after returning all free memory to
// the OS and resetting the kernel's high-water mark, and returns the
// median peak resident set in MB. Peak RSS over a whole run is the
// maximum of many GC cycles and swings with their timing; one job's
// peak from a clean start repeats. Where the mark cannot be reset, the
// process-lifetime peak is returned.
func jobPeakRSS(r runner, res *result, fail func(error)) float64 {
	var peaks []float64
	for i := 0; i < rssJobs; i++ {
		debug.FreeOSMemory()
		if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
			return peakRSSMB()
		}
		res.Attempted++
		if _, err := r.job(); err != nil {
			fail(err)
			continue
		}
		peaks = append(peaks, peakRSSMB())
	}
	return median(peaks)
}

// traceDir is where a traced run writes its spans and CPU profile,
// relative to the repository root the benchmark runs from.
var traceDir = filepath.Join(".bench_build", "trace")

func measureTraced(w *workload, r runner, seed int64, measure time.Duration,
	res *result, fail func(error), rep *report) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", w.name, seed))
	prof, err := os.Create(stem + ".cpu.pprof")
	if err != nil {
		return err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return err
	}
	rec := newRecorder()
	acc := &layerAcc{sums: map[string]float64{}}
	gc0 := readGC()
	start := time.Now()
	for acc.jobs == 0 || time.Since(start) < measure {
		res.Attempted++
		runtime.GC()
		rec.job++
		if err := r.traced(rec, acc); err != nil {
			fail(err)
			if acc.jobs == 0 && time.Since(start) > measure {
				break
			}
		}
	}
	gc := readGC().minus(gc0)
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return err
	}
	if err := rec.writeSpans(stem + ".spans.csv"); err != nil {
		return err
	}
	if acc.jobs == 0 {
		return fmt.Errorf("%s: no traced job completed", w.name)
	}
	acc.report(rep, w, gc)
	if faster, n := acc.campaignFaster(); n > 0 && signTestP(faster, n) < 0.001 {
		fail(fmt.Errorf("the campaign beat the bare rig in %d of %d rounds, so fuzz.loop_ns_per_exec is negative: the rig no longer mirrors fuzz.Run", faster, n))
	}
	return nil
}

// campaignFaster counts the rounds in which the fuzz campaign took less
// time per exec than the bare rig that repeats only its layer calls.
func (a *layerAcc) campaignFaster() (faster, n int) {
	for i := range a.fuzzPerExec {
		if a.fuzzPerExec[i] < a.rigPerExec[i] {
			faster++
		}
	}
	return faster, len(a.fuzzPerExec)
}

// signTestP is the chance of at least k successes in n fair coin
// flips: how likely k rounds in n would favour one side if neither
// side were faster.
func signTestP(k, n int) float64 {
	p := 0.0
	for j := k; j <= n; j++ {
		lc, _ := math.Lgamma(float64(n + 1))
		la, _ := math.Lgamma(float64(j + 1))
		lb, _ := math.Lgamma(float64(n - j + 1))
		p += math.Exp(lc - la - lb - float64(n)*math.Ln2)
	}
	return p
}

// layerAcc sums per-job layer figures over the traced jobs.
type layerAcc struct {
	jobs                    int
	sums                    map[string]float64
	baseWall, tracedWall    []float64
	fuzzPerExec, rigPerExec []float64
}

func (a *layerAcc) add(name string, v float64) { a.sums[name] += v }

func (a *layerAcc) addCalls(rec *recorder) {
	for l := layer(0); l < numLayers; l++ {
		a.add(layerNames[l]+".calls", float64(rec.calls[l]))
		a.add(layerNames[l]+".busy_ns", float64(rec.busy[l]))
	}
	a.add("target.restore_delta.hits", float64(rec.deltaHits))
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (a *layerAcc) report(rep *report, w *workload, gc gcSample) {
	per := func(name string) float64 { return a.sums[name] / float64(a.jobs) }
	s := a.sums
	for _, l := range []string{"target.save", "target.restore", "target.restore_delta", "target.advance"} {
		rep.set(l+".calls", per(l+".calls"), "count", "per job")
		rep.set(l+".busy_ns", per(l+".busy_ns"), "ns", "per job")
	}
	rep.set("target.restore_delta.hit_ratio", ratio(s["target.restore_delta.hits"], s["target.restore_delta.calls"]), "ratio", "incremental restores / RestoreDelta calls")
	rep.set("target.bytes_moved", per("target.bytes_moved"), "bytes", "per job")
	for _, l := range []string{"bus.read", "bus.write", "bus.irq"} {
		rep.set(l+".calls", per(l+".calls"), "count", "per job")
		rep.set(l+".busy_ns", per(l+".busy_ns"), "ns", "per job")
	}
	rep.set("core.context_switches", per("core.context_switches"), "count", "per job")
	rep.set("core.saves_skipped_ratio", ratio(s["core.saves_skipped"], s["core.saves_skipped"]+s["core.saves"]), "ratio", "")
	rep.set("core.restores_skipped_ratio", ratio(s["core.restores_skipped"], s["core.restores_skipped"]+s["core.restores"]), "ratio", "")
	rep.set("core.residual_ns", per("core.residual_ns"), "ns", "per job: Engine.Run minus timed target, bus, solver")
	rep.set("core.snapman_restore.calls", per("core.snapman_restore.calls"), "count", "per job (fuzz rig)")
	rep.set("core.snapman_restore.busy_ns", per("core.snapman_restore.busy_ns"), "ns", "per job (fuzz rig)")
	rep.set("symexec.instructions", per("symexec.instructions"), "count", "per job")
	rep.set("symexec.forks", per("symexec.forks"), "count", "per job")
	rep.set("symexec.residual_ns_per_instr", ratio(s["core.residual_ns"], s["symexec.instructions"]), "ns", "")
	rep.set("snapshot.dedup_hit_ratio", ratio(s["snapshot.dedup_hits"], s["snapshot.puts"]), "ratio", "")
	rep.set("snapshot.bytes_shared_ratio", ratio(s["snapshot.bytes_shared"], s["snapshot.bytes_shared"]+s["snapshot.bytes_stored"]), "ratio", "")
	rep.set("solver.queries", per("solver.queries"), "count", "per job")
	rep.set("solver.busy_ns", per("solver.busy_ns"), "ns", "per job")
	rep.set("solver.sat_effort", per("solver.sat_effort"), "count", "per job: conflicts + propagations")
	rep.set("solver.cache_hit_ratio", ratio(s["solver.cache_hits"], s["solver.cache_lookups"]), "ratio", "")
	rep.set("vm.restore_snapshot.calls", per("vm.restore_snapshot.calls"), "count", "per job (fuzz rig)")
	rep.set("vm.restore_snapshot.busy_ns", per("vm.restore_snapshot.busy_ns"), "ns", "per job (fuzz rig)")
	rep.set("vm.exec.self_ns", per("vm.exec.self_ns"), "ns", "per job (fuzz rig)")
	// The loop overhead is a few percent of an exec, well inside the
	// job-to-job spread of the 1 MiB snapshot copy, so it is taken
	// from rounds that ran the campaign and the bare rig back to back.
	loop := 0.0
	if len(a.fuzzPerExec) > 0 {
		diffs := make([]float64, len(a.fuzzPerExec))
		for i := range diffs {
			diffs[i] = a.fuzzPerExec[i] - a.rigPerExec[i]
		}
		loop = median(diffs)
	}
	rep.set("fuzz.loop_ns_per_exec", loop, "ns", "median over rounds of campaign minus bare rig, per exec")
	rep.set("fuzz.edges", per("fuzz.edges"), "count", "per job")
	rep.set("fuzz.corpus", per("fuzz.corpus"), "count", "per job")
	rep.set("runtime.gc_cpu_share", ratio(gc.gc, gc.gc+gc.user), "ratio", "over the traced run")
	rep.set("trace_overhead", ratio(median(a.tracedWall), median(a.baseWall)), "ratio", fmt.Sprintf("traced/untraced median job wall time, n=%d", a.jobs))
	rep.set("layer.dominant_share", w.dominant(a), "ratio", "share of job wall time in the workload's own layer")
}

// gcSample is cumulative Go runtime CPU time by class, in seconds.
type gcSample struct{ gc, user float64 }

func readGC() gcSample {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/user:cpu-seconds"}}
	metrics.Read(s)
	return gcSample{gc: s[0].Value.Float64(), user: s[1].Value.Float64()}
}

func (g gcSample) minus(o gcSample) gcSample { return gcSample{gc: g.gc - o.gc, user: g.user - o.user} }

// allocated returns the bytes the heap has handed out so far.
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// cpuTime returns the CPU time the process has used so far, all
// threads together (CLOCK_PROCESS_CPUTIME_ID).
func cpuTime() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, 2, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", errno))
	}
	return time.Duration(ts.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark, in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			var kb float64
			fmt.Sscan(f[1], &kb)
			return kb / 1024
		}
	}
	return 0
}

// tailBeyond is how many samples must lie beyond the tail percentile.
const tailBeyond = 10

// tailOf returns the highest-percentile sample with at least
// tailBeyond samples beyond it, and that percentile. With too few
// samples it returns the maximum.
func tailOf(xs []float64) (value, pct float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	i := n - 1 - tailBeyond
	if i < 0 {
		i = n - 1
	}
	return s[i], 100 * float64(i+1) / float64(n)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
