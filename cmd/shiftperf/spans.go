package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call (the layers carry no spans of their own).
type span struct {
	Name   string
	Key    string // sample group: the program for spec ops, "" for serve requests
	Req    int64  // the op or request every span of one request shares
	Lane   int    // caller or client connection
	ID     int
	Parent int // 0 for a root span
	Start  time.Time
	End    time.Time
}

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// add records a span and returns its id. A nil log records nothing, so
// the untraced path pays one nil check per call site.
func (l *spanLog) add(name, key string, req int64, lane, parent int, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{Name: name, Key: key, Req: req, Lane: lane, ID: id, Parent: parent, Start: start, End: end})
	return id
}

// end closes span id, for a parent whose end is known only after its
// children are recorded.
func (l *spanLog) end(id int, t time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].End = t
}

// durations groups the durations (µs) of the spans named name by key.
func (l *spanLog) durations(name string) map[string][]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[string][]float64{}
	for _, s := range l.spans {
		if s.Name == name {
			out[s.Key] = append(out[s.Key], float64(s.End.Sub(s.Start).Nanoseconds())/1e3)
		}
	}
	return out
}

// layerUS is a layer's time per op: the median duration of its spans in
// each sample group, summed over groups (a suite round calls every
// program once; a serve request is a single group).
func (l *spanLog) layerUS(name string) float64 {
	return sumQ(l.durations(name), 0.5)
}

// chromeEvent is one Chrome trace-event ("X" complete or "M" metadata).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// chrome converts the log to trace events under one process row named
// after the workload.
func (l *spanLog) chrome(workload string) []chromeEvent {
	const pid = 1
	l.mu.Lock()
	defer l.mu.Unlock()
	evs := []chromeEvent{{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": workload}}}
	for _, s := range l.spans {
		evs = append(evs, chromeEvent{
			Name: s.Name,
			Cat:  workload,
			Ph:   "X",
			TS:   float64(s.Start.Sub(l.origin).Nanoseconds()) / 1e3,
			Dur:  float64(s.End.Sub(s.Start).Nanoseconds()) / 1e3,
			PID:  pid,
			TID:  s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req, "key": s.Key},
		})
	}
	return evs
}

// writeChromeFile writes events as a Chrome trace-event JSON file
// (loadable in chrome://tracing and Perfetto).
func writeChromeFile(path string, evs []chromeEvent) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(chromeTrace{TraceEvents: evs}); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// readChromeFile loads a file writeChromeFile wrote.
func readChromeFile(path string) ([]chromeEvent, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t chromeTrace
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return t.TraceEvents, nil
}
