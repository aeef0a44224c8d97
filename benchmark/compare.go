package main

import (
	"fmt"
	"io"
	"math"
)

const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// noise is a host median's distance between quartiles as a share of the
// median; 0 for values that carry no quartiles.
func noise(v value) float64 {
	if v.Q1 == nil || v.Q3 == nil || v.Value == 0 {
		return 0
	}
	return math.Abs((*v.Q3 - *v.Q1) / v.Value)
}

// judge compares candidate b with baseline a on one metric. worse is by how
// much b is worse than a as a share of a (negative when it is better). A
// metric with bound 0 must repeat exactly. Otherwise, when either side's own
// trials spread wider than the bound, the pair cannot tell a change of that
// size from noise and is reported as unresolved, not as unchanged.
func judge(m e2eMetric, a, b value) (verdict string, worse float64) {
	switch {
	case a.Value == b.Value:
		worse = 0
	case a.Value == 0:
		worse = math.Inf(1)
		if (b.Value > 0) == (m.better == higher) {
			worse = math.Inf(-1)
		}
	default:
		worse = (b.Value - a.Value) / math.Abs(a.Value)
		if m.better == higher {
			worse = -worse
		}
	}
	if m.bound > 0 && (noise(a) > m.bound || noise(b) > m.bound) {
		return unresolved, worse
	}
	switch {
	case worse > m.bound:
		return regressed, worse
	case worse < -m.bound:
		return improved, worse
	}
	return unchanged, worse
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// results.json files and returns the exit code: 1 when any metric regressed.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := readResults(pathB)
	if err != nil {
		fatal(err)
	}
	return compareResults(w, a, b)
}

func compareResults(w io.Writer, a, b *results) int {
	ea, eb := a.Env, b.Env
	ea.Commit, eb.Commit = "", ""
	if ea != eb {
		fmt.Fprintf(w, "warning: the runs differ in more than the commit, so only like settings compare:\n  A %+v\n  B %+v\n", a.Env, b.Env)
	}
	fmt.Fprintf(w, "%-22s %-26s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse by", "bound", "verdict")
	counts := map[string]int{}
	for _, info := range workloadTable {
		wa, wb := a.Workloads[info.name], b.Workloads[info.name]
		if wa == nil || wb == nil {
			continue
		}
		for _, m := range e2eMetrics {
			va, okA := wa.EndToEnd[m.name]
			vb, okB := wb.EndToEnd[m.name]
			if !okA || !okB {
				continue
			}
			verdict, worse := judge(m, va, vb)
			counts[verdict]++
			bound := "exact"
			if m.bound > 0 {
				bound = fmt.Sprintf("%.0f%%", 100*m.bound)
			}
			fmt.Fprintf(w, "%-22s %-26s %14.6g %14.6g %+8.2f%% %7s  %s\n", info.name, m.name, va.Value, vb.Value, 100*worse, bound, verdict)
		}
	}
	fmt.Fprintf(w, "%d improved, %d unchanged, %d regressed, %d unresolved\n",
		counts[improved], counts[unchanged], counts[regressed], counts[unresolved])
	if counts[regressed] > 0 {
		return 1
	}
	return 0
}
