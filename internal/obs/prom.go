package obs

import (
	"fmt"
	"io"
	"strconv"
)

// PromWriter writes Prometheus text exposition lines, remembering the first
// write error so call sites stay linear. It is the one writer behind every
// blinktree_* series, the tree's (blinkmetrics) and the server's alike.
type PromWriter struct {
	w   io.Writer
	err error
}

// NewPromWriter returns a writer appending to w.
func NewPromWriter(w io.Writer) *PromWriter { return &PromWriter{w: w} }

// Err returns the first write error, or nil.
func (p *PromWriter) Err() error { return p.err }

// Printf writes one formatted line (or lines) unless an earlier write failed.
func (p *PromWriter) Printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// Header writes a family's HELP and TYPE lines.
func (p *PromWriter) Header(name, help, typ string) {
	p.Printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Line writes one integer sample; labels is the text between the braces,
// empty for none.
func (p *PromWriter) Line(name, labels string, v uint64) {
	if labels == "" {
		p.Printf("%s %d\n", name, v)
	} else {
		p.Printf("%s{%s} %d\n", name, labels, v)
	}
}

// Hist writes one histogram (cumulative le buckets, in seconds) with a fixed
// label, or none if labelKey is empty. Every bucket is written, empty ones
// too, so scrapes see a stable series set.
func (p *PromWriter) Hist(name, labelKey, labelVal string, h HistogramSnapshot) {
	label := ""
	if labelKey != "" {
		label = labelKey + `="` + labelVal + `",`
	}
	var cum uint64
	for i := 0; i < HistBuckets-1; i++ {
		cum += h.Buckets[i]
		le := strconv.FormatFloat(h.BucketBound(i).Seconds(), 'g', -1, 64)
		p.Printf("%s_bucket{%sle=\"%s\"} %d\n", name, label, le, cum)
	}
	p.Printf("%s_bucket{%sle=\"+Inf\"} %d\n", name, label, h.Count)
	flabel := ""
	if labelKey != "" {
		flabel = "{" + labelKey + `="` + labelVal + `"}`
	}
	p.Printf("%s_sum%s %g\n", name, flabel, float64(h.Sum)/1e9)
	p.Printf("%s_count%s %d\n", name, flabel, h.Count)
}
