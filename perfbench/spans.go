package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one interval the benchmark timed around a call into the
// program: cluster.Run (Rank -1), an application Init or Step, or an
// instant (Start == End) for the kill and the respawn. Start and End are
// host offsets from the start of the run; VirtStartUS/VirtEndUS are the
// modeled clock of the process at the same two points.
type span struct {
	Run         int // index of the run in its spanLog
	Name        string
	Rank        int
	Start, End  time.Duration
	VirtStartUS float64
	VirtEndUS   float64
}

// spanLog keeps spans in memory until the benchmark writes them out. A
// nil *spanLog records nothing, so untraced runs pay one branch per call.
type spanLog struct {
	mu    sync.Mutex
	runs  []string // run names, in the order the runs began
	spans []span
}

func (l *spanLog) add(s span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	s.Run = len(l.runs) - 1
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// chromeEvent is one entry of the Chrome trace-event format, loadable in
// Perfetto or chrome://tracing.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as one process per traced run and one
// thread per rank (-1 for the cluster.Run span), on the host clock.
func (l *spanLog) writeChrome(path string) error {
	l.mu.Lock()
	evs := make([]chromeEvent, 0, len(l.runs)+len(l.spans))
	for i, name := range l.runs {
		evs = append(evs, chromeEvent{Name: "process_name", Ph: "M", Pid: i, Args: map[string]any{"name": name}})
	}
	for _, s := range l.spans {
		e := chromeEvent{
			Name: s.Name, Ph: "X", Pid: s.Run, Tid: s.Rank,
			TS:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"virt_start_us": s.VirtStartUS, "virt_end_us": s.VirtEndUS},
		}
		if s.Start == s.End {
			e.Ph = "i"
		}
		evs = append(evs, e)
	}
	l.mu.Unlock()
	buf, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// begin starts a new run, named run, that the following spans belong to.
func (l *spanLog) begin(run string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.runs = append(l.runs, run)
	l.mu.Unlock()
}
