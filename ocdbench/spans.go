package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	ocd "ocd"
)

// span is one node of a trace tree, as ocd.Tracer.WriteTree exports it.
type span struct {
	Name     string           `json:"name"`
	StartNS  int64            `json:"start_ns"`
	DurNS    int64            `json:"dur_ns"`
	Attrs    map[string]int64 `json:"attrs"`
	Children []*span          `json:"children"`
}

func treeOf(tr *ocd.Tracer) (*span, error) {
	var b bytes.Buffer
	if err := tr.WriteTree(&b); err != nil {
		return nil, err
	}
	var root span
	if err := json.Unmarshal(b.Bytes(), &root); err != nil {
		return nil, fmt.Errorf("decoding trace tree: %w", err)
	}
	return &root, nil
}

func (s *span) walk(f func(*span)) {
	f(s)
	for _, c := range s.Children {
		c.walk(f)
	}
}

// selfNS is the span's duration minus the part of it that its children
// cover; overlapping children (parallel workers) count once.
func (s *span) selfNS() int64 {
	iv := make([][2]int64, 0, len(s.Children))
	for _, c := range s.Children {
		iv = append(iv, [2]int64{c.StartNS, c.StartNS + c.DurNS})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered, end := int64(0), int64(-1)
	for _, v := range iv {
		lo, hi := max(v[0], s.StartNS, end), min(v[1], s.StartNS+s.DurNS)
		if hi > lo {
			covered += hi - lo
		}
		end = max(end, v[1])
	}
	return s.DurNS - covered
}

// layerName folds numbered spans ("level 3", "worker 1") into one layer.
func layerName(name string) string {
	for _, p := range []string{"level ", "worker "} {
		if strings.HasPrefix(name, p) {
			return strings.TrimSuffix(p, " ")
		}
	}
	return name
}

// layerTime is one layer's accumulated time over a set of traces.
type layerTime struct {
	calls           int64
	totalNS, selfNS int64
	attrs           map[string]int64
}

// layers accumulates per-layer time over trace trees.
type layers map[string]*layerTime

func (l layers) add(root *span) {
	root.walk(func(s *span) {
		name := layerName(s.Name)
		t := l[name]
		if t == nil {
			t = &layerTime{attrs: map[string]int64{}}
			l[name] = t
		}
		t.calls++
		t.totalNS += s.DurNS
		t.selfNS += s.selfNS()
		for k, v := range s.Attrs {
			t.attrs[k] += v
		}
	})
}

func (l layers) totalMS(name string) float64 {
	if t := l[name]; t != nil {
		return float64(t.totalNS) / 1e6
	}
	return 0
}

func (l layers) selfMS(name string) float64 {
	if t := l[name]; t != nil {
		return float64(t.selfNS) / 1e6
	}
	return 0
}

func (l layers) attr(name, key string) int64 {
	if t := l[name]; t != nil {
		return t.attrs[key]
	}
	return 0
}

// print writes the layer table, each time divided by per (passes or jobs).
func (l layers) print(w io.Writer, per float64, unit string) {
	names := make([]string, 0, len(l))
	for n := range l {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return l[names[i]].totalNS > l[names[j]].totalNS })
	fmt.Fprintf(w, "%-14s %10s %14s %14s\n", "layer", "calls/"+unit, "total ms/"+unit, "self ms/"+unit)
	for _, n := range names {
		t := l[n]
		fmt.Fprintf(w, "%-14s %10.1f %14.3f %14.3f\n", n, float64(t.calls)/per, float64(t.totalNS)/1e6/per, float64(t.selfNS)/1e6/per)
	}
}
