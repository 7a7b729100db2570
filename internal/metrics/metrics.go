// Package metrics is a small registry of named, labeled series —
// counters, gauges, and the repo's histo histograms — with a canonical
// snapshot order, exact merging, and a text exposition format.
//
// The serving tiers fill a registry at scrape time from their existing
// accounting (tenant totals, pool counters, breaker states, latency
// histograms), so the hot path pays nothing. A scrape is the one
// accounting surface: the serve report is rendered from it
// (serve.Report), targets ship it over the wire in their Snapshot
// frame, and the router merges per-target scrapes with Registry.Add —
// counters and gauges sum, histograms merge — into one fleet scrape.
//
// Samples are identified by (name, sorted label set). Snapshot order is
// lexicographic over that identity, so two registries filled from the
// same state expose byte-identical text.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"conduit/internal/histo"
)

// Label is one key/value dimension of a series.
type Label struct {
	Key   string
	Value string
}

// Kind tags a sample's type.
type Kind uint8

// The sample kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// Sample is one series' value at scrape time.
type Sample struct {
	Name   string
	Labels []Label // sorted by key
	Kind   Kind
	// Value carries counters (monotonic totals) and gauges (point-in-
	// time levels); zero for histograms.
	Value float64
	// Hist is non-nil iff Kind is KindHistogram.
	Hist *histo.Histogram
}

// Registry accumulates samples. The zero value is not usable; call New.
type Registry struct {
	mu      sync.Mutex
	samples map[string]*Sample
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{samples: make(map[string]*Sample)}
}

// seriesKey is the canonical identity of a (name, labels) pair; it
// doubles as the sort key for Snapshot order.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0)
		b.WriteString(l.Key)
		b.WriteByte(0)
		b.WriteString(l.Value)
	}
	return b.String()
}

func sortLabels(labels []Label) []Label {
	if len(labels) <= 1 {
		return labels
	}
	out := make([]Label, len(labels))
	copy(out, labels)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// lookup finds or creates the series. A kind conflict on an existing
// series returns nil: the first writer wins and the conflicting write
// is dropped rather than corrupting the series.
func (r *Registry) lookup(name string, kind Kind, labels []Label) *Sample {
	labels = sortLabels(labels)
	key := seriesKey(name, labels)
	s, ok := r.samples[key]
	if !ok {
		s = &Sample{Name: name, Labels: labels, Kind: kind}
		if kind == KindHistogram {
			s.Hist = histo.New()
		}
		r.samples[key] = s
		return s
	}
	if s.Kind != kind {
		return nil
	}
	return s
}

// Count adds n to the named counter.
func (r *Registry) Count(name string, n int64, labels ...Label) {
	r.mu.Lock()
	if s := r.lookup(name, KindCounter, labels); s != nil {
		s.Value += float64(n)
	}
	r.mu.Unlock()
}

// SetGauge sets the named gauge.
func (r *Registry) SetGauge(name string, v float64, labels ...Label) {
	r.mu.Lock()
	if s := r.lookup(name, KindGauge, labels); s != nil {
		s.Value = v
	}
	r.mu.Unlock()
}

// MergeHist folds h into the named histogram series. h is not retained.
func (r *Registry) MergeHist(name string, h *histo.Histogram, labels ...Label) {
	if h == nil {
		return
	}
	r.mu.Lock()
	if s := r.lookup(name, KindHistogram, labels); s != nil {
		s.Hist.Merge(h)
	}
	r.mu.Unlock()
}

// Add merges one sample into the registry: counters and gauges sum,
// histograms merge. It is how the router folds per-target snapshots
// into a fleet registry. A kind conflict drops the incoming sample.
func (r *Registry) Add(in Sample) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.lookup(in.Name, in.Kind, in.Labels)
	if s == nil {
		return
	}
	switch in.Kind {
	case KindHistogram:
		if in.Hist != nil {
			s.Hist.Merge(in.Hist)
		}
	default:
		s.Value += in.Value
	}
}

// Snapshot returns the registry's samples sorted by (name, labels).
// Histograms are cloned, so the snapshot is immune to later writes.
func (r *Registry) Snapshot() []Sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]string, 0, len(r.samples))
	for k := range r.samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Sample, 0, len(keys))
	for _, k := range keys {
		s := *r.samples[k]
		if s.Hist != nil {
			s.Hist = s.Hist.Clone()
		}
		out = append(out, s)
	}
	return out
}

// Relabel returns the samples with an extra label on every series —
// the router uses it to stamp target="name" onto a target's snapshot
// before folding it into the fleet registry.
func Relabel(samples []Sample, key, value string) []Sample {
	out := make([]Sample, len(samples))
	for i, s := range samples {
		labels := make([]Label, 0, len(s.Labels)+1)
		labels = append(labels, s.Labels...)
		labels = append(labels, Label{Key: key, Value: value})
		s.Labels = sortLabels(labels)
		out[i] = s
	}
	return out
}

// WriteText writes the samples in a text exposition format, one series
// per line: name{k="v",...} value. Histograms expand to quantile rows
// (0.5, 0.99, 0.999) plus _count and _sum rows. Output is byte-
// deterministic for a given snapshot.
func WriteText(w io.Writer, samples []Sample) error {
	for _, s := range samples {
		switch s.Kind {
		case KindHistogram:
			h := s.Hist
			if h == nil {
				h = histo.New()
			}
			for _, q := range [...]struct {
				name string
				p    float64
			}{{"0.5", 50}, {"0.99", 99}, {"0.999", 99.9}} {
				ql := append(append([]Label{}, s.Labels...), Label{Key: "quantile", Value: q.name})
				if _, err := fmt.Fprintf(w, "%s%s %d\n", s.Name, labelText(ql), h.Percentile(q.p)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", s.Name, labelText(s.Labels), h.Count()); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", s.Name, labelText(s.Labels), h.Sum()); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", s.Name, labelText(s.Labels), formatValue(s.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

func labelText(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, `"\`+"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
