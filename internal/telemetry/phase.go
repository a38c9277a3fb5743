package telemetry

import (
	"sync/atomic"
	"time"
)

// Sweep phases: a sweep engine opens a named phase with its expected
// item count (StartPhase("dse.candidates", n)), bumps it once per finished
// item (Phase.Inc, one atomic add), and Finish-es it when done. The phase
// journals a "phase" event at its start and at its finish, so a live
// scraper sees a running sweep's start in /events and a journal records
// each sweep's items and wall time.

// Phase is one named unit of tracked work. Its methods are safe for
// concurrent use and are no-ops on a nil receiver.
type Phase struct {
	name  string
	start time.Time
	total int64

	done     atomic.Int64
	finished atomic.Bool
}

// PhaseEvent is the data of the phase events a Phase writes: "start" with
// the expected total, and "finish" with the items done, the total and the
// elapsed time.
type PhaseEvent struct {
	Action    string `json:"action"`
	Done      *int64 `json:"done,omitempty"`
	Total     int64  `json:"total"`
	ElapsedNS *int64 `json:"elapsed_ns,omitempty"`
}

// StartPhase opens the named phase expecting total work items (<= 0:
// unknown) and journals its start.
func StartPhase(name string, total int64) *Phase {
	p := &Phase{name: name, start: time.Now(), total: total}
	if JournalOn() {
		EmitEvent(EvPhase, name, &PhaseEvent{Action: "start", Total: total})
	}
	return p
}

// Inc marks one work item done.
func (p *Phase) Inc() {
	if p != nil {
		p.done.Add(1)
	}
}

// Finish marks the phase complete and journals its finish; repeated calls
// journal nothing more.
func (p *Phase) Finish() {
	if p == nil || !p.finished.CompareAndSwap(false, true) {
		return
	}
	if JournalOn() {
		done, elapsed := p.done.Load(), time.Since(p.start).Nanoseconds()
		EmitEvent(EvPhase, p.name, &PhaseEvent{Action: "finish", Done: &done, Total: p.total, ElapsedNS: &elapsed})
	}
}
