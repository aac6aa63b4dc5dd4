package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A result set is a directory of run outputs, one file per run named
// <workload>.<seed>.json, each holding a run's standard output (only
// its last line is read). compare pairs the runs of two sets by
// workload and seed and gives, per workload and end-to-end metric,
// each side's median and quartiles and a verdict:
//
//   - better: the change wins at least 9/10 of the pairs (ties count
//     for neither) and the medians differ, in the better direction, by
//     more than the base's interquartile range;
//   - worse: the change's median is worse than the base's by more
//     than the metric's bound in BENCHMARK.json;
//   - unresolved: the base's own spread (IQR / median) is wider than
//     the bound, so a regression within it cannot be ruled out, and
//     not every change run beats every base run;
//   - unchanged: otherwise.

type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runKey identifies one run within a set.
type runKey struct{ workload, seed string }

func compareMain(args []string, out io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: hsperf compare BASE_DIR CHANGE_DIR (from the repository root, which holds BENCHMARK.json)")
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	base, err := loadSet(args[0])
	if err != nil {
		return err
	}
	change, err := loadSet(args[1])
	if err != nil {
		return err
	}

	byWorkload := map[string][]runKey{}
	for k := range base {
		if _, ok := change[k]; ok {
			byWorkload[k.workload] = append(byWorkload[k.workload], k)
		}
	}
	if len(byWorkload) == 0 {
		return errors.New("the two sets share no <workload>.<seed> run")
	}
	names := make([]string, 0, len(byWorkload))
	for w := range byWorkload {
		names = append(names, w)
	}
	sort.Strings(names)

	fmt.Fprintf(out, "%-16s %-20s %-36s %-36s %-7s %s\n", "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, w := range names {
		keys := byWorkload[w]
		sort.Slice(keys, func(i, j int) bool { return keys[i].seed < keys[j].seed })
		var bFail, cFail, bRuns, cRuns int
		for _, k := range keys {
			bFail += base[k].Failed
			cFail += change[k].Failed
			bRuns += base[k].Attempted
			cRuns += change[k].Attempted
		}
		for _, m := range spec.EndToEnd {
			var b, c []float64
			for _, k := range keys {
				bm, ok1 := base[k].Metrics[m.Name]
				cm, ok2 := change[k].Metrics[m.Name]
				if ok1 && ok2 {
					b, c = append(b, bm.Value), append(c, cm.Value)
				}
			}
			if len(b) < 2 {
				continue
			}
			v := judge(b, c, m.Better == "lower", m.Bound)
			fmt.Fprintf(out, "%-16s %-20s %-36s %-36s %-7s %s\n", w, m.Name,
				fmtQuart(b, m.Unit), fmtQuart(c, m.Unit), fmt.Sprintf("%d/%d", v.wins, len(b)), v.verdict)
		}
		fmt.Fprintf(out, "%-16s %-20s failed %d of %d attempted jobs; change: %d of %d\n", w, "fail_ratio", bFail, bRuns, cFail, cRuns)
	}
	return nil
}

func loadSet(dir string) (map[runKey]*result, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	set := map[runKey]*result{}
	for _, f := range files {
		base := strings.TrimSuffix(filepath.Base(f), ".json")
		i := strings.LastIndex(base, ".")
		if i <= 0 {
			return nil, fmt.Errorf("%s: want <workload>.<seed>.json", f)
		}
		r, err := lastResult(f)
		if err != nil {
			return nil, err
		}
		set[runKey{workload: base[:i], seed: base[i+1:]}] = r
	}
	return set, nil
}

// lastResult parses the last non-empty line of a run's output.
func lastResult(path string) (*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	return &r, nil
}

type judgement struct {
	wins    int
	verdict string
}

// judge applies the rule in the package comment to paired samples
// b[i] (base) and c[i] (change) of one metric.
func judge(b, c []float64, lowerBetter bool, bound float64) judgement {
	better := func(x, y float64) bool {
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	var j judgement
	for i := range b {
		if better(c[i], b[i]) {
			j.wins++
		}
	}
	bq1, bmed, bq3 := quartiles(b)
	_, cmed, _ := quartiles(c)
	if 10*j.wins >= 9*len(b) && math.Abs(cmed-bmed) > bq3-bq1 && better(cmed, bmed) {
		j.verdict = "better"
		return j
	}
	worse := (cmed - bmed) / math.Abs(bmed)
	if !lowerBetter {
		worse = -worse
	}
	if (bq3-bq1)/math.Abs(bmed) > bound {
		allBetter := true
		for _, x := range c {
			for _, y := range b {
				allBetter = allBetter && better(x, y)
			}
		}
		if allBetter {
			j.verdict = "unchanged"
		} else {
			j.verdict = "unresolved"
		}
		return j
	}
	if worse > bound {
		j.verdict = "worse"
	} else {
		j.verdict = "unchanged"
	}
	return j
}

// quartiles returns the first quartile, median and third quartile by
// the exclusive method of Python's statistics.quantiles(n=4), so the
// spreads match those computed from the same results in Python.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func fmtQuart(xs []float64, unit string) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %s", med, q1, q3, unit)
}
