package telemetry

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// Label is one Prometheus label pair.
type Label struct {
	Name, Value string
}

// PromWriter emits the Prometheus text exposition format (version
// 0.0.4) without any client library: `# HELP` / `# TYPE` headers,
// samples with escaped label values, and cumulative histogram series.
// Errors stick; check the Flush result once at the end.
type PromWriter struct {
	w   *bufio.Writer
	err error
}

// NewPromWriter wraps w. Call Flush when done.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: bufio.NewWriter(w)}
}

// ContentType is the value advertised for the text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// escapeLabel escapes a label value per the exposition format:
// backslash, double quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string (backslash and newline only).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func (p *PromWriter) writeString(s string) {
	if p.err == nil {
		_, p.err = p.w.WriteString(s)
	}
}

// Header writes the # HELP and # TYPE lines for a metric family. typ is
// one of "counter", "gauge", "histogram", "untyped".
func (p *PromWriter) Header(name, help, typ string) {
	p.writeString("# HELP " + name + " " + escapeHelp(help) + "\n")
	p.writeString("# TYPE " + name + " " + typ + "\n")
}

func (p *PromWriter) sample(name string, labels []Label, value string) {
	p.writeString(name)
	if len(labels) > 0 {
		p.writeString("{")
		for i, l := range labels {
			if i > 0 {
				p.writeString(",")
			}
			p.writeString(l.Name + `="` + escapeLabel(l.Value) + `"`)
		}
		p.writeString("}")
	}
	p.writeString(" " + value + "\n")
}

// Value writes one float sample.
func (p *PromWriter) Value(name string, labels []Label, v float64) {
	p.sample(name, labels, strconv.FormatFloat(v, 'g', -1, 64))
}

// Int writes one integer sample.
func (p *PromWriter) Int(name string, labels []Label, v int64) {
	p.sample(name, labels, strconv.FormatInt(v, 10))
}

// Histogram writes a full cumulative histogram family from a snapshot:
// name_bucket{le="..."} series in seconds, the mandatory le="+Inf"
// bucket, name_sum (seconds), and name_count. Callers must have written
// the Header (type "histogram") first. Empty buckets collapse into the
// next boundary's cumulative count, so only occupied boundaries (plus
// +Inf) are emitted — quantiles stay derivable and scrapes stay small.
func (p *PromWriter) Histogram(name string, labels []Label, s HistSnapshot) {
	var cum int64
	bl := make([]Label, len(labels)+1)
	copy(bl, labels)
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		cum += c
		le := float64(BucketUpperNanos(i)) / 1e9
		bl[len(labels)] = Label{"le", strconv.FormatFloat(le, 'g', -1, 64)}
		p.sample(name+"_bucket", bl, strconv.FormatInt(cum, 10))
	}
	bl[len(labels)] = Label{"le", "+Inf"}
	p.sample(name+"_bucket", bl, strconv.FormatInt(cum, 10))
	p.Value(name+"_sum", labels, float64(s.SumNanos)/1e9)
	p.Int(name+"_count", labels, cum)
}

// Flush drains the buffer and returns the sticky error.
func (p *PromWriter) Flush() error {
	if p.err != nil {
		return p.err
	}
	return p.w.Flush()
}
