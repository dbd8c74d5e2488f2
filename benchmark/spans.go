package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// span is one line of a traced run's span file. Trace is the op index;
// Span and Parent are layer-boundary names, unique within a trace except
// for leaves. Spans the benchmark times itself carry their real start;
// spans rebuilt from a response field (server.handler from elapsed_ms,
// core.search from stats.engine_secs) carry a duration only and are
// placed at their parent's start.
type span struct {
	Trace   int    `json:"trace"`
	Span    string `json:"span"`
	Parent  string `json:"parent"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

func (s span) end() int64 { return s.StartNS + s.DurNS }

// selfTime is a span's duration minus the part of its interval that its
// children cover; overlapping children count once.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.StartNS, parent.StartNS), min(c.end(), parent.end())
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int { return cmp.Compare(a.lo, b.lo) })
	covered := int64(0)
	cur := iv{-1, -1}
	for _, v := range ivs {
		if v.lo > cur.hi {
			covered += cur.hi - cur.lo
			cur = v
		} else if v.hi > cur.hi {
			cur.hi = v.hi
		}
	}
	covered += cur.hi - cur.lo
	return time.Duration(parent.DurNS - covered)
}

// tracer collects spans in memory during a run; a nil tracer records
// nothing, which is how untraced runs stay free of its cost.
type tracer struct {
	origin time.Time
	spans  []span
}

func (t *tracer) add(trace int, name, parent string, start time.Time, dur time.Duration) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Trace: trace, Span: name, Parent: parent, StartNS: int64(start.Sub(t.origin)), DurNS: int64(dur)})
}

// selfTimes returns, in trace order, the self time of every span named
// name, with children matched by trace and parent name.
func selfTimes(spans []span, name string) []float64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent == name {
			kids[s.Trace] = append(kids[s.Trace], s)
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Span == name {
			out = append(out, ms(selfTime(s, kids[s.Trace])))
		}
	}
	return out
}

// durations returns the durations, in ms, of every span named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Span == name {
			out = append(out, float64(s.DurNS)/1e6)
		}
	}
	return out
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
