package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// SortSpans orders spans by (TraceID, ID) — the canonical export order.
// Content-derived IDs make this a total order that two runs of one
// schedule agree on, no matter how goroutines interleaved.
func SortSpans(spans []*Span) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].TraceID != spans[j].TraceID {
			return spans[i].TraceID < spans[j].TraceID
		}
		return spans[i].ID < spans[j].ID
	})
}

// Process groups spans under one named process for the Perfetto export:
// the serving CLI uses a single process, the router uses one per target
// plus one for itself.
type Process struct {
	Name  string
	Spans []*Span
}

// perfettoEvent is one Chrome trace_event object. Timestamps are
// microseconds (float); we place spans on the simulated timeline and
// use the trace ID as the thread ID, so one request reads as one track.
type perfettoEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  uint64            `json:"tid"`
	Ts   float64           `json:"ts"`
	Dur  *float64          `json:"dur,omitempty"`
	S    string            `json:"s,omitempty"`
	Args map[string]string `json:"args,omitempty"`
}

// WritePerfetto writes the spans as Chrome/Perfetto trace_event JSON
// ({"traceEvents": [...]}), loadable in ui.perfetto.dev or
// chrome://tracing. Spans render on the simulated timeline; each
// Process becomes one Perfetto process row and each trace one thread
// within it.
func WritePerfetto(w io.Writer, procs []Process) error {
	events := make([]perfettoEvent, 0, 64)
	for i, proc := range procs {
		pid := i + 1
		events = append(events, perfettoEvent{
			Name: "process_name",
			Ph:   "M",
			Pid:  pid,
			Args: map[string]string{"name": proc.Name},
		})
		spans := make([]*Span, len(proc.Spans))
		copy(spans, proc.Spans)
		SortSpans(spans)
		for _, sp := range spans {
			dur := float64(sp.SimEndNS-sp.SimStartNS) / 1e3
			events = append(events, perfettoEvent{
				Name: sp.Name,
				Ph:   "X",
				Pid:  pid,
				Tid:  sp.TraceID,
				Ts:   float64(sp.SimStartNS) / 1e3,
				Dur:  &dur,
				Args: spanArgs(sp),
			})
			for _, ev := range sp.Events {
				events = append(events, perfettoEvent{
					Name: ev.Name,
					Ph:   "i",
					S:    "t",
					Pid:  pid,
					Tid:  sp.TraceID,
					Ts:   float64(ev.SimNS) / 1e3,
					Args: attrArgs(ev.Attrs),
				})
			}
		}
	}
	out := struct {
		TraceEvents []perfettoEvent `json:"traceEvents"`
	}{TraceEvents: events}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

func spanArgs(sp *Span) map[string]string {
	args := attrArgs(sp.Attrs)
	if args == nil {
		args = make(map[string]string, 1)
	}
	args["span_id"] = fmt.Sprintf("%016x", sp.ID)
	return args
}

func attrArgs(attrs []Attr) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	args := make(map[string]string, len(attrs))
	for _, a := range attrs {
		args[a.Key] = a.Value
	}
	return args
}
