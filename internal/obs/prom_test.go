package obs

import (
	"bufio"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	sampleRe     = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})? (\S+)$`)
	labelRe      = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"$`)
)

// parsePromText validates text in the Prometheus exposition format and
// returns sample-name -> count. It checks HELP/TYPE headers, sample line
// syntax, label syntax, parseable values, and — for histograms — that
// bucket counts are cumulative, end in +Inf, and match _count.
func parsePromText(t *testing.T, text string) map[string]int {
	t.Helper()
	samples := map[string]int{}
	types := map[string]string{}
	type bucketKey struct{ series string }
	lastCum := map[string]float64{}
	infSeen := map[string]float64{}
	counts := map[string]float64{}
	_ = bucketKey{}

	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 3 || (parts[1] != "HELP" && parts[1] != "TYPE") {
				t.Fatalf("bad comment line: %q", line)
			}
			if !metricNameRe.MatchString(parts[2]) {
				t.Fatalf("bad metric name in comment: %q", line)
			}
			if parts[1] == "TYPE" {
				if len(parts) != 4 {
					t.Fatalf("bad TYPE line: %q", line)
				}
				switch parts[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					t.Fatalf("bad TYPE %q", parts[3])
				}
				types[parts[2]] = parts[3]
			}
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("bad sample line: %q", line)
		}
		name, labels, valStr := m[1], m[3], m[4]
		var le string
		var seriesLabels []string
		if labels != "" {
			for _, pair := range splitLabels(labels) {
				lm := labelRe.FindStringSubmatch(pair)
				if lm == nil {
					t.Fatalf("bad label pair %q in %q", pair, line)
				}
				if lm[1] == "le" {
					le = lm[2]
				} else {
					seriesLabels = append(seriesLabels, pair)
				}
			}
		}
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		samples[name]++

		series := strings.Join(seriesLabels, ",")
		switch {
		case strings.HasSuffix(name, "_bucket"):
			key := strings.TrimSuffix(name, "_bucket") + "|" + series
			if val < lastCum[key] {
				t.Fatalf("non-cumulative bucket in %q: %v < %v", line, val, lastCum[key])
			}
			lastCum[key] = val
			if le == "+Inf" {
				infSeen[key] = val
			} else if _, err := strconv.ParseFloat(le, 64); err != nil {
				t.Fatalf("bad le %q in %q", le, line)
			}
		case strings.HasSuffix(name, "_count"):
			counts[strings.TrimSuffix(name, "_count")+"|"+series] = val
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for key, c := range counts {
		if inf, ok := infSeen[key]; ok {
			if math.Abs(inf-c) > 1e-9 {
				t.Fatalf("histogram %s: +Inf bucket %v != _count %v", key, inf, c)
			}
		}
	}
	for key := range lastCum {
		if _, ok := infSeen[key]; !ok {
			t.Fatalf("histogram %s has buckets but no +Inf bucket", key)
		}
	}
	return samples
}

// splitLabels splits a label body on commas not inside quoted values.
func splitLabels(s string) []string {
	var out []string
	var cur strings.Builder
	inQ := false
	esc := false
	for _, r := range s {
		switch {
		case esc:
			esc = false
			cur.WriteRune(r)
		case r == '\\':
			esc = true
			cur.WriteRune(r)
		case r == '"':
			inQ = !inQ
			cur.WriteRune(r)
		case r == ',' && !inQ:
			out = append(out, cur.String())
			cur.Reset()
		default:
			cur.WriteRune(r)
		}
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

func TestWriteMetricsFormat(t *testing.T) {
	var b strings.Builder
	err := WriteMetrics(&b, []Metric{
		{Name: "x_total", Type: "counter", Help: "An x.", Labels: []Label{{"disk", "0"}}, Value: 3},
		{Name: "x_total", Type: "counter", Help: "An x.", Labels: []Label{{"disk", "1"}}, Value: 4},
		{Name: "y", Type: "gauge", Help: `Quote " and \ and newline`, Value: 1.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	samples := parsePromText(t, out)
	if samples["x_total"] != 2 || samples["y"] != 1 {
		t.Fatalf("samples = %v\n%s", samples, out)
	}
	if strings.Count(out, "# TYPE x_total counter") != 1 {
		t.Fatalf("TYPE header not emitted exactly once:\n%s", out)
	}
}

func TestWritePhaseHistogramsFormat(t *testing.T) {
	tr := New(64, nil)
	for i := 0; i < 5; i++ {
		tr.Begin("cluster", "exchange", 0).End()
	}
	tr.Merge([]Span{{Layer: "sort", Name: "base-case", Dur: 3 * time.Millisecond}}, 0, 1)
	var b strings.Builder
	if err := WritePhaseHistograms(&b, "balancesort_phase_seconds", tr.Hists()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	samples := parsePromText(t, out)
	wantBuckets := 2 * HistBuckets // two (layer,phase) series
	if samples["balancesort_phase_seconds_bucket"] != wantBuckets {
		t.Fatalf("bucket samples = %d, want %d\n%s", samples["balancesort_phase_seconds_bucket"], wantBuckets, out)
	}
	if samples["balancesort_phase_seconds_count"] != 2 || samples["balancesort_phase_seconds_sum"] != 2 {
		t.Fatalf("samples = %v", samples)
	}
}
