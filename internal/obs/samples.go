package obs

import "sort"

// Sample is one series of a structured registry snapshot: the JSON-friendly
// counterpart of one WritePrometheus line, used by madstat -json to emit
// metrics, health and diagnosis as a single machine-readable document.
type Sample struct {
	Name   string  `json:"name"`
	Kind   string  `json:"kind"` // "counter", "gauge" or "histogram"
	Labels Labels  `json:"labels,omitempty"`
	Value  float64 `json:"value"` // counter/gauge value; histogram sum

	// Histogram-only fields.
	Count int64   `json:"count,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P90   float64 `json:"p90,omitempty"`
	P99   float64 `json:"p99,omitempty"`
}

// Samples returns every series that was ever written as a sorted,
// self-describing slice: counters first, then gauges, then histograms, each
// group ordered by canonical series identity. Nil-safe.
func (r *Registry) Samples() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attach()
	out := []Sample{}
	for kind, m := range r.series {
		group := make([]*series, 0, len(m))
		for _, s := range m {
			if _, written := s.read(); written {
				group = append(group, s)
			}
		}
		sort.Slice(group, func(i, j int) bool { return group[i].key < group[j].key })
		for _, s := range group {
			sm := Sample{Name: s.name, Kind: kindNames[kind], Labels: copyLabels(s.labels)}
			sm.Value, _ = s.read()
			if h := s.hist; h != nil {
				h.mu.Lock()
				sm.Value, sm.Count = h.sum, h.count
				sm.P50, sm.P90, sm.P99 = h.quantile(0.5), h.quantile(0.9), h.quantile(0.99)
				h.mu.Unlock()
			}
			out = append(out, sm)
		}
	}
	return out
}
