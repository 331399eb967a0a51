package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Label is one Prometheus label pair.
type Label struct {
	Name  string
	Value string
}

// Metric is one sample of a counter or gauge family. Samples sharing a
// Name form one family; WriteMetrics emits HELP/TYPE once per family.
type Metric struct {
	Name   string
	Type   string // "counter" or "gauge"
	Help   string
	Labels []Label
	Value  float64
}

// Source produces the current samples of one component (disk I/O layer
// stats, cluster worker counters, ...). Sources are polled on every
// /metrics scrape.
type Source func() []Metric

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

func writeLabels(b *strings.Builder, labels []Label) {
	if len(labels) == 0 {
		return
	}
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// WriteMetrics writes the samples in the Prometheus text exposition
// format, grouping samples of the same family under one HELP/TYPE header.
// Families appear in first-seen order; samples keep their given order.
func WriteMetrics(w io.Writer, ms []Metric) error {
	var order []string
	families := map[string][]Metric{}
	for _, m := range ms {
		if _, ok := families[m.Name]; !ok {
			order = append(order, m.Name)
		}
		families[m.Name] = append(families[m.Name], m)
	}
	var b strings.Builder
	for _, name := range order {
		fam := families[name]
		if fam[0].Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, fam[0].Help)
		}
		typ := fam[0].Type
		if typ == "" {
			typ = "gauge"
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, typ)
		for _, m := range fam {
			b.WriteString(name)
			writeLabels(&b, m.Labels)
			b.WriteByte(' ')
			b.WriteString(strconv.FormatFloat(m.Value, 'g', -1, 64))
			b.WriteByte('\n')
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WritePhaseHistograms writes the tracer's per-(layer, phase) duration
// histograms as one Prometheus histogram family with cumulative le
// buckets in seconds, a _sum, and a _count per series.
func WritePhaseHistograms(w io.Writer, name string, hs []HistSnapshot) error {
	if len(hs) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# HELP %s Phase duration distribution by layer and phase.\n", name)
	fmt.Fprintf(&b, "# TYPE %s histogram\n", name)
	for _, h := range hs {
		base := []Label{{"layer", h.Layer}, {"phase", h.Name}}
		cum := int64(0)
		for i := 0; i < HistBuckets; i++ {
			cum += h.Counts[i]
			le := "+Inf"
			if bound := HistBound(i); bound >= 0 {
				le = strconv.FormatFloat(bound.Seconds(), 'g', -1, 64)
			}
			b.WriteString(name)
			b.WriteString("_bucket")
			writeLabels(&b, append(append([]Label{}, base...), Label{"le", le}))
			fmt.Fprintf(&b, " %d\n", cum)
		}
		b.WriteString(name)
		b.WriteString("_sum")
		writeLabels(&b, base)
		b.WriteString(" " + strconv.FormatFloat(h.Sum.Seconds(), 'g', -1, 64) + "\n")
		b.WriteString(name)
		b.WriteString("_count")
		writeLabels(&b, base)
		fmt.Fprintf(&b, " %d\n", h.N)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// stragglerOutcomes maps the cluster layer's straggler-detector event
// counters onto the outcome label of balancesort_stragglers_total.
var stragglerOutcomes = map[string]string{
	"stragglers-detected": "detected",   // demoted to the failover path
	"hedge-wins":          "hedge_win",  // hedge finished first, victim cancelled
	"hedge-losses":        "hedge_loss", // victim finished first, hedge discarded
}

// stragglerMetric maps one (layer, event) counter onto a sample of the
// dedicated balancesort_stragglers_total family, or false if the counter
// is not a straggler-detector event. Kept separate from the generic
// events_total family so a "stragglers firing" alert needs no knowledge
// of the tracer's internal event vocabulary.
func stragglerMetric(layer, event string, val int64) (Metric, bool) {
	outcome, ok := stragglerOutcomes[event]
	if layer != "cluster" || !ok {
		return Metric{}, false
	}
	return Metric{
		Name:   "balancesort_stragglers_total",
		Type:   "counter",
		Help:   "Straggler detections and hedged re-execution outcomes.",
		Labels: []Label{{"outcome", outcome}},
		Value:  float64(val),
	}, true
}
