package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WritePrometheus renders the registry as a Prometheus-style text snapshot:
// counters and gauges as plain series, histograms as cumulative `_bucket`
// series plus `_sum`/`_count` and precomputed quantile series (p50/p90/p99),
// everything sorted so snapshots diff cleanly. The header comment carries
// the virtual timestamp of the snapshot. Every line starts from the canonical
// key its series was given at bind time; the text goes out in one Write.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		fmt.Fprintln(w, "# no metrics registry armed")
		return
	}
	out := fmt.Appendf(nil, "# madgo metrics snapshot at virtual time %v\n", r.Now())

	r.mu.Lock()
	r.attach()
	families := make(map[string][]string) // family name -> rendered lines
	types := make(map[string]string)
	for kind, m := range r.series {
		for _, s := range m {
			v, written := s.read()
			if !written {
				continue
			}
			if kind == kindHistogram {
				families[s.name] = appendHistogram(families[s.name], s)
			} else {
				families[s.name] = append(families[s.name], s.key+" "+formatVal(v))
			}
			types[s.name] = kindNames[kind]
		}
	}
	r.mu.Unlock()

	names := make([]string, 0, len(families))
	for n := range families {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		out = fmt.Appendf(out, "# TYPE %s %s\n", n, types[n])
		lines := families[n]
		sort.Strings(lines)
		for _, l := range lines {
			out = append(append(out, l...), '\n')
		}
	}
	w.Write(out) // best effort, like every snapshot writer here
}

// appendHistogram emits the cumulative bucket, sum, count and quantile lines
// of one histogram series.
func appendHistogram(out []string, s *series) []string {
	h := s.hist
	h.mu.Lock()
	defer h.mu.Unlock()
	count := " " + strconv.FormatInt(h.count, 10)
	head, tail := labelFrame(s.name+"_bucket", s.labels, "le")
	var cum int64
	for i, n := range h.buckets[:histOverflow] {
		if n > 0 {
			cum += n
			out = append(out, head+formatVal(bucketUpper(i))+tail+" "+strconv.FormatInt(cum, 10))
		}
	}
	out = append(out, head+"+Inf"+tail+count)
	labels := s.key[len(s.name):]
	out = append(out, s.name+"_sum"+labels+" "+formatVal(h.sum), s.name+"_count"+labels+count)
	head, tail = labelFrame(s.name, s.labels, "quantile")
	for _, q := range [...]float64{0.5, 0.9, 0.99} {
		out = append(out, head+strconv.FormatFloat(q, 'g', -1, 64)+tail+" "+formatVal(h.quantile(q)))
	}
	return out
}

// labelFrame returns what stands before and after the value of one extra
// label in the canonical key of name{labels, extra="..."}: the sorted keys are
// worked out once per series, not once per line.
func labelFrame(name string, labels Labels, extra string) (head, tail string) {
	var ks [8]string
	keys := labelKeys(ks[:0], labels)
	i := sort.SearchStrings(keys, extra)
	b := appendPairs(append([]byte(name), '{'), keys[:i], labels)
	if i > 0 {
		b = append(b, ',')
	}
	head = string(append(append(b, extra...), '=', '"'))
	b = append(b[:0], '"')
	if i < len(keys) {
		b = appendPairs(append(b, ','), keys[i:], labels)
	}
	return head, string(append(b, '}'))
}

// formatVal renders a sample value the way Prometheus text format expects:
// integers without a decimal point, everything else in compact scientific
// form.
func formatVal(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
