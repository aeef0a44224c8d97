package obs

import (
	"encoding/json"
	"io"
	"maps"
	"slices"
	"strconv"
	"strings"
)

// WriteChromeTrace renders spans and hop events as Chrome trace_event JSON
// (the format Perfetto and chrome://tracing load). Each span actor becomes a
// thread inside a process named after the actor's first component ("gw",
// "rel", "fault", ...); each traced message becomes a thread of instant
// events inside a "messages" process, so a message's provenance reads as one
// horizontal lane. Timestamps are virtual microseconds.
func WriteChromeTrace(w io.Writer, spans []Span, hops []Hop) error {
	pids := make(map[string]int)
	tids := make(map[string]int)
	pid := func(name string) int {
		id, ok := pids[name]
		if !ok {
			id = len(pids) + 1
			pids[name] = id
		}
		return id
	}
	tid := func(name string) int {
		id, ok := tids[name]
		if !ok {
			id = len(tids) + 1
			tids[name] = id
		}
		return id
	}

	// Assign process/thread IDs in sorted name order so the output is
	// deterministic regardless of recording order.
	procNames := make(map[string]bool)
	threadNames := make(map[string]string) // thread -> process
	for _, s := range spans {
		proc := actorProcess(s.Actor)
		procNames[proc] = true
		threadNames[s.Actor] = proc
	}
	if len(hops) > 0 {
		procNames["messages"] = true
	}
	for _, h := range hops {
		threadNames[msgThread(h.Msg)] = "messages"
	}
	procs := slices.Sorted(maps.Keys(procNames))
	for _, n := range procs {
		pid(n)
	}
	threads := slices.Sorted(maps.Keys(threadNames))
	for _, n := range threads {
		tid(n)
	}

	// Initialized non-nil so an empty trace still encodes as
	// {"traceEvents": []}, which Perfetto accepts ("traceEvents": null is
	// rejected).
	events := []map[string]any{}
	for _, n := range procs {
		events = append(events, map[string]any{
			"name": "process_name", "ph": "M", "pid": pid(n),
			"args": map[string]any{"name": n},
		})
	}
	for _, n := range threads {
		events = append(events, map[string]any{
			"name": "thread_name", "ph": "M", "pid": pid(threadNames[n]), "tid": tid(n),
			"args": map[string]any{"name": n},
		})
	}
	for _, s := range spans {
		events = append(events, map[string]any{
			"name": s.Op, "ph": "X",
			"ts": micros(int64(s.T0)), "dur": micros(int64(s.T1.Sub(s.T0))),
			"pid": pid(actorProcess(s.Actor)), "tid": tid(s.Actor),
			"args": map[string]any{"bytes": s.Bytes},
		})
	}
	for _, h := range hops {
		events = append(events, map[string]any{
			"name": h.Op, "ph": "i", "s": "t",
			"ts":  micros(int64(h.At)),
			"pid": pid("messages"), "tid": tid(msgThread(h.Msg)),
			"args": map[string]any{"node": h.Node, "detail": h.Detail, "bytes": h.Bytes},
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events})
}

// actorProcess maps an actor name to its Chrome process: the leading
// component of names like "gw:recv:sci0" or "rel:a1", the whole name
// otherwise.
func actorProcess(actor string) string {
	if i := strings.IndexByte(actor, ':'); i > 0 {
		return actor[:i]
	}
	return actor
}

func msgThread(id uint64) string {
	return "msg " + strconv.FormatUint(id, 10)
}

// micros converts virtual nanoseconds to trace_event microseconds.
func micros(ns int64) float64 {
	return float64(ns) / 1000.0
}
