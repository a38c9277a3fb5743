package telemetry

import (
	"bufio"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// Prometheus text exposition format (version 0.0.4) conformance checks.
// These parse the exporter's raw output and assert the invariants a real
// Prometheus scraper depends on, so a formatting regression fails loudly
// instead of silently dropping series at scrape time.

var metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// expoSample is one parsed non-comment exposition line.
type expoSample struct {
	name  string // full series name, e.g. mnsim_x_bucket
	le    string // le label value when present
	value string
	line  int
}

// parseExposition splits exposition text into comment directives and
// samples, failing the test on any line that is neither.
func parseExposition(t *testing.T, text string) (types map[string]string, samples []expoSample) {
	t.Helper()
	types = map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	n := 0
	for sc.Scan() {
		n++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed TYPE line %q", n, line)
			}
			if _, dup := types[fields[0]]; dup {
				t.Errorf("line %d: duplicate TYPE for %s", n, fields[0])
			}
			switch fields[1] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Errorf("line %d: unknown metric type %q", n, fields[1])
			}
			types[fields[0]] = fields[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free-form comment
		}
		s := expoSample{line: n}
		nameAndLabels, value, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("line %d: sample without value: %q", n, line)
		}
		s.value = value
		if i := strings.IndexByte(nameAndLabels, '{'); i >= 0 {
			s.name = nameAndLabels[:i]
			labels := strings.TrimSuffix(nameAndLabels[i+1:], "}")
			for _, kv := range strings.Split(labels, ",") {
				k, v, ok := strings.Cut(kv, "=")
				if !ok {
					t.Fatalf("line %d: malformed label %q", n, kv)
				}
				uq, err := strconv.Unquote(v)
				if err != nil {
					t.Fatalf("line %d: label value %s not a quoted string: %v", n, v, err)
				}
				if k == "le" {
					s.le = uq
				}
			}
		} else {
			s.name = nameAndLabels
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return types, samples
}

// family maps a series name like mnsim_x_bucket back to its family name.
func family(series string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if f, ok := strings.CutSuffix(series, suffix); ok {
			return f
		}
	}
	return series
}

func TestPrometheusExpositionConformance(t *testing.T) {
	r := NewRegistry()
	r.Counter("mnsim_conf_ops_total").Add(3)
	r.Gauge("mnsim_conf_depth").Set(-2.5)
	h := r.Histogram("mnsim_conf_latency_us", []float64{1, 10, 100})
	h.Observe(0.5)
	h.Observe(42)
	h.Observe(1e6)                          // lands in +Inf
	r.Histogram("mnsim_conf_empty_us", nil) // zero observations

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	types, samples := parseExposition(t, text)

	// Every sample's series name is legal and its family has a TYPE that
	// appears before the family's first sample.
	firstSample := map[string]int{}
	for _, s := range samples {
		if !metricNameRe.MatchString(s.name) {
			t.Errorf("line %d: illegal metric name %q", s.line, s.name)
		}
		f := family(s.name)
		if _, ok := firstSample[f]; !ok {
			firstSample[f] = s.line
		}
		if _, ok := types[f]; !ok {
			t.Errorf("line %d: sample %s has no TYPE for family %s", s.line, s.name, f)
		}
	}
	for f, line := range firstSample {
		typeLine := strings.Index(text, "# TYPE "+f+" ")
		if typeLine < 0 {
			continue // already reported above
		}
		typeLineNo := strings.Count(text[:typeLine], "\n") + 1
		if typeLineNo > line {
			t.Errorf("TYPE for %s on line %d appears after its first sample on line %d", f, typeLineNo, line)
		}
	}

	// Histogram invariants: each histogram family, including the one with
	// zero observations, carries an le="+Inf" bucket equal to _count, a
	// _sum, and non-decreasing cumulative buckets.
	for _, hist := range []string{"mnsim_conf_latency_us", "mnsim_conf_empty_us"} {
		if types[hist] != "histogram" {
			t.Errorf("%s TYPE = %q, want histogram", hist, types[hist])
		}
		var inf, count string
		haveSum := false
		prev := int64(-1)
		for _, s := range samples {
			switch {
			case s.name == hist+"_bucket":
				v, err := strconv.ParseInt(s.value, 10, 64)
				if err != nil {
					t.Fatalf("line %d: bucket value %q: %v", s.line, s.value, err)
				}
				if v < prev {
					t.Errorf("%s buckets not cumulative: %d after %d", hist, v, prev)
				}
				prev = v
				if s.le == "" {
					t.Errorf("line %d: %s_bucket without le label", s.line, hist)
				}
				if s.le == "+Inf" {
					inf = s.value
				}
			case s.name == hist+"_sum":
				haveSum = true
			case s.name == hist+"_count":
				count = s.value
			}
		}
		if inf == "" {
			t.Errorf("%s missing le=\"+Inf\" bucket", hist)
		}
		if !haveSum {
			t.Errorf("%s missing _sum", hist)
		}
		if count == "" {
			t.Errorf("%s missing _count", hist)
		} else if inf != count {
			t.Errorf("%s le=\"+Inf\" bucket %s != _count %s", hist, inf, count)
		}
	}

	// Spot-check values survived the round trip.
	for _, s := range samples {
		switch s.name {
		case "mnsim_conf_ops_total":
			if s.value != "3" {
				t.Errorf("counter value %q, want 3", s.value)
			}
		case "mnsim_conf_depth":
			if s.value != "-2.5" {
				t.Errorf("gauge value %q, want -2.5", s.value)
			}
		case "mnsim_conf_latency_us_count":
			if s.value != "3" {
				t.Errorf("histogram count %q, want 3", s.value)
			}
		}
	}
}

func TestValidateNameRejectsIllegal(t *testing.T) {
	for _, bad := range []string{"", "9starts_with_digit", "has-dash", "has space", "ünïcode"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("registry accepted illegal metric name %q", bad)
				}
			}()
			NewRegistry().Counter(bad)
		}()
	}
	for _, good := range []string{"a", "_x", "ns:metric_total", "mnsim_x_9"} {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("registry rejected legal metric name %q: %v", good, p)
				}
			}()
			NewRegistry().Counter(good)
		}()
	}
}
