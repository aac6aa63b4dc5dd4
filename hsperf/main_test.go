package main

import (
	"math"
	"reflect"
	"testing"

	"hardsnap/internal/asm"
	"hardsnap/internal/bus"
	"hardsnap/internal/target"
	"hardsnap/internal/vtime"
)

func TestTailHasTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 37, 100, 250} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tailOf must sort
		}
		v, pct := tailOf(xs)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail, want %d", n, beyond, tailBeyond)
		}
		if want := 100 * float64(n-tailBeyond) / float64(n); pct != want {
			t.Errorf("n=%d: tail percentile %g, want %g", n, pct, want)
		}
	}
	// Too few samples: the tail is the maximum.
	if v, pct := tailOf([]float64{3, 1, 2}); v != 3 || pct != 100 {
		t.Errorf("short sample: got %g at p%g, want 3 at p100", v, pct)
	}
}

// TestTracedRunMatchesAndResidualsAreNonNegative runs one traced round
// of every workload: the traced job must reproduce the untraced
// outputs (traced returns an error otherwise), and the self times left
// after subtracting the timed layers must not be negative.
func TestTracedRunMatchesAndResidualsAreNonNegative(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := w.setup(7)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.job(); err != nil {
				t.Fatal(err)
			}
			acc := &layerAcc{sums: map[string]float64{}}
			if err := r.traced(newRecorder(), acc); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"core.residual_ns", "vm.exec.self_ns"} {
				if v := acc.sums[name]; v < 0 {
					t.Errorf("%s = %g, want >= 0", name, v)
				}
			}
			if share := w.dominant(acc); share <= 0 {
				t.Errorf("dominant layer share %g, want > 0", share)
			}
		})
	}
}

func TestSameSeedSameFirmware(t *testing.T) {
	gens := map[string]func(int64) string{
		"switch": switchFirmware, "compute": computeFirmware,
		"solver": solverFirmware, "fuzz": fuzzFirmware,
	}
	for name, gen := range gens {
		a, b := gen(42), gen(42)
		if a != b {
			t.Errorf("%s: seed 42 gave two different sources", name)
		}
		pa, err := asm.Assemble(a, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pb, err := asm.Assemble(b, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(pa.Code, pb.Code) {
			t.Errorf("%s: seed 42 assembled to two different images", name)
		}
		if gen(43) == a {
			t.Errorf("%s: seeds 42 and 43 gave the same source", name)
		}
	}
}

// fakeTarget records which target.Interface methods reached it.
type fakeTarget struct{ called map[string]bool }

func (f *fakeTarget) mark(name string) { f.called[name] = true }

func (f *fakeTarget) Name() string               { f.mark("Name"); return "fake" }
func (f *fakeTarget) Kind() string               { f.mark("Kind"); return "fake" }
func (f *fakeTarget) Clock() *vtime.Clock        { f.mark("Clock"); return nil }
func (f *fakeTarget) Stats() target.Stats        { f.mark("Stats"); return target.Stats{} }
func (f *fakeTarget) StateBits() uint            { f.mark("StateBits"); return 0 }
func (f *fakeTarget) Advance(uint64) error       { f.mark("Advance"); return nil }
func (f *fakeTarget) Reset() error               { f.mark("Reset"); return nil }
func (f *fakeTarget) Generation() uint64         { f.mark("Generation"); return 0 }
func (f *fakeTarget) AnchorSeq() uint64          { f.mark("AnchorSeq"); return 0 }
func (f *fakeTarget) Restore(target.State) error { f.mark("Restore"); return nil }
func (f *fakeTarget) AdoptState(target.State) error {
	f.mark("AdoptState")
	return nil
}
func (f *fakeTarget) Save() (target.State, error) { f.mark("Save"); return nil, nil }
func (f *fakeTarget) RestoreDelta(target.State) (bool, error) {
	f.mark("RestoreDelta")
	return true, nil
}
func (f *fakeTarget) TakeViolations() []target.Violation { f.mark("TakeViolations"); return nil }
func (f *fakeTarget) InjectFaults(target.FaultSchedule)  { f.mark("InjectFaults") }
func (f *fakeTarget) SetRetryPolicy(target.RetryPolicy)  { f.mark("SetRetryPolicy") }
func (f *fakeTarget) FaultSchedule() (target.FaultSchedule, bool) {
	f.mark("FaultSchedule")
	return target.FaultSchedule{}, false
}
func (f *fakeTarget) Port(name string) (bus.Port, error) {
	f.mark("Port")
	if name == "buffered" {
		return &fakeFlushPort{fakePort{f}}, nil
	}
	return &fakePort{f}, nil
}
func (f *fakeTarget) SpawnWorker(string, *vtime.Clock, int) (target.Interface, error) {
	f.mark("SpawnWorker")
	return &fakeTarget{called: f.called}, nil
}

type fakePort struct{ f *fakeTarget }

func (p *fakePort) ReadReg(uint32) (uint32, error) { p.f.mark("ReadReg"); return 0, nil }
func (p *fakePort) WriteReg(uint32, uint32) error  { p.f.mark("WriteReg"); return nil }
func (p *fakePort) IRQLevel() (bool, error)        { p.f.mark("IRQLevel"); return false, nil }

type fakeFlushPort struct{ fakePort }

func (p *fakeFlushPort) Flush() error { p.f.mark("Flush"); return nil }

func TestDecoratorForwardsEveryMethod(t *testing.T) {
	fake := &fakeTarget{called: map[string]bool{}}
	rec := newRecorder()
	dec := reflect.ValueOf(&timedTarget{inner: fake, rec: rec})
	iface := reflect.TypeOf((*target.Interface)(nil)).Elem()
	for i := 0; i < iface.NumMethod(); i++ {
		m := iface.Method(i)
		args := make([]reflect.Value, m.Type.NumIn())
		for j := range args {
			args[j] = reflect.Zero(m.Type.In(j))
		}
		dec.MethodByName(m.Name).Call(args)
		if !fake.called[m.Name] {
			t.Errorf("timedTarget.%s does not reach the wrapped target", m.Name)
		}
	}

	tt := dec.Interface().(*timedTarget)
	child, err := tt.SpawnWorker("w", nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := child.(*timedTarget); !ok {
		t.Errorf("SpawnWorker returned %T, want the child wrapped in *timedTarget", child)
	}

	for _, name := range []string{"plain", "buffered"} {
		p, err := tt.Port(name)
		if err != nil {
			t.Fatal(err)
		}
		p.ReadReg(0)
		p.WriteReg(0, 1)
		p.IRQLevel()
		for _, m := range []string{"ReadReg", "WriteReg", "IRQLevel"} {
			if !fake.called[m] {
				t.Errorf("%s port: %s does not reach the wrapped port", name, m)
			}
		}
		_, flushes := p.(bus.Flusher)
		if flushes != (name == "buffered") {
			t.Errorf("%s port: wrapper implements bus.Flusher = %v", name, flushes)
		}
	}
	if f, ok := mustPort(t, tt, "buffered").(bus.Flusher); ok {
		f.Flush()
		if !fake.called["Flush"] {
			t.Error("Flush does not reach the wrapped port")
		}
	}
	if rec.calls[layerRestoreDelta] == 0 || rec.deltaHits == 0 || rec.calls[layerBusRead] == 0 {
		t.Error("decorated calls were not counted")
	}
}

func mustPort(t *testing.T, tt *timedTarget, name string) bus.Port {
	t.Helper()
	p, err := tt.Port(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g, %g, want 2.75, 5.5, 8.25", q1, med, q3)
	}
}

func TestSignTestP(t *testing.T) {
	for _, c := range []struct {
		k, n int
		want float64
	}{{0, 10, 1}, {10, 10, 1.0 / 1024}, {8, 10, 56.0 / 1024}} {
		if got := signTestP(c.k, c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("signTestP(%d, %d) = %g, want %g", c.k, c.n, got, c.want)
		}
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	cases := []struct {
		name        string
		base, chg   []float64
		lowerBetter bool
		want        string
	}{
		{"faster", base, shift(-10), true, "better"},
		{"slower beyond bound", base, shift(+20), true, "worse"},
		{"slower within bound", base, shift(+5), true, "unchanged"},
		{"higher is better", base, shift(+10), false, "better"},
		{"noisy base", noisy, shift(+5), true, "unresolved"},
	}
	for _, c := range cases {
		if got := judge(c.base, c.chg, c.lowerBetter, 0.1).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
