package cmif

import (
	"fmt"
	"time"

	"repro/internal/player"
	"repro/internal/render"
	"repro/internal/sched"
)

// Plan is a document's resolved timing: the difference-constraint graph
// built from structure and arcs, plus one consistent event schedule. It is
// the input to the viewing tools and the playback simulator.
//
// A Plan carries reusable solver state: after editing the document through
// its mutation API (DeleteNode, InsertNode, MoveNode, RenameNode, AddArc,
// RemoveArc, SetNodeAttr), Reschedule brings the timing up to date by
// patching the constraint graph where the edits touched it and solving the
// patched graph.
type Plan struct {
	doc      *Document
	solver   *sched.Solver
	schedule *sched.Schedule
}

// scheduleConfig collects the scheduling options.
type scheduleConfig struct {
	opts  sched.Options
	solve sched.SolveOptions
}

// ScheduleOption configures Schedule.
type ScheduleOption func(*scheduleConfig)

// WithDefaultLeafDuration assigns d to leaves with no known duration; zero
// (the default) leaves them flexible.
func WithDefaultLeafDuration(d time.Duration) ScheduleOption {
	return func(c *scheduleConfig) { c.opts.DefaultLeafDuration = d }
}

// WithRelaxation permits dropping May arcs when the constraint set is
// otherwise unsatisfiable (the paper's conflict resolution). An arc is
// dropped only if it cannot hold together with the non-May constraints and
// the May arcs kept before it in document order, so the victims are the
// same on every run and putting any one of them back conflicts.
func WithRelaxation() ScheduleOption {
	return func(c *scheduleConfig) { c.solve.Relax = true }
}

// Schedule resolves every event time of the document from its structure
// and synchronization arcs. The returned Plan keeps the solver state, so
// subsequent edits can be absorbed with Reschedule instead of rebuilding
// the constraint graph.
func Schedule(d *Document, opts ...ScheduleOption) (*Plan, error) {
	var cfg scheduleConfig
	for _, o := range opts {
		o(&cfg)
	}
	solver, err := sched.NewSolver(d.doc, cfg.opts, cfg.solve)
	if err != nil {
		return nil, err
	}
	s, err := solver.Schedule()
	if err != nil {
		return nil, err
	}
	return &Plan{doc: d, solver: solver, schedule: s}, nil
}

// Reschedule brings the plan up to date after document edits. Only the
// constraints of the nodes the edits touched are re-derived; the patched
// graph is then solved whole, and not at all when no constraint changed.
// The result is identical to a fresh Schedule of the edited document. The
// receiver keeps its times but shares the patched graph with the returned
// Plan: it reads events the edits added as time zero and refuses to Play,
// and interleaving Reschedule calls on stale plans is not supported.
func (p *Plan) Reschedule() (*Plan, error) {
	if p.solver == nil {
		return nil, fmt.Errorf("cmif: plan has no solver state")
	}
	s, err := p.solver.Reschedule()
	if err != nil {
		return nil, err
	}
	return &Plan{doc: p.doc, solver: p.solver, schedule: s}, nil
}

// Makespan returns the planned total presentation length.
func (p *Plan) Makespan() time.Duration { return p.schedule.Makespan() }

// StartOf returns a node's planned begin time.
func (p *Plan) StartOf(n *Node) time.Duration { return p.schedule.StartOf(n) }

// EndOf returns a node's planned end time.
func (p *Plan) EndOf(n *Node) time.Duration { return p.schedule.EndOf(n) }

// DroppedArcs lists the May arcs relaxation dropped to make the plan
// consistent.
func (p *Plan) DroppedArcs() []ArcRef { return p.schedule.Dropped }

// ArcRef names one explicit arc by its node and per-node index.
type ArcRef = sched.ArcRef

// --- viewing tools ---

// Tree renders the indented structure view (Figure 5a).
func Tree(d *Document) string { return render.Tree(d.doc) }

// ArcTable renders the synchronization-arc table (Figure 9 form).
func ArcTable(d *Document) string { return render.ArcTable(d.doc) }

// TimelineOptions controls the channel/time view.
type TimelineOptions = render.TimelineOptions

// Timeline renders the Figure 4b / Figure 10 channel-per-column view of
// the plan.
func (p *Plan) Timeline(opts TimelineOptions) string {
	return render.Timeline(p.schedule, opts)
}

// TOC renders the table-of-contents text of the plan.
func (p *Plan) TOC() string { return render.TOCText(p.schedule) }

// --- playback simulation ---

// JitterModel maps a (node, channel) pair to a start latency, modelling
// device behaviour during playback.
type JitterModel = player.JitterModel

// UniformJitter draws latencies uniformly from [0, max) with a fixed seed.
func UniformJitter(seed uint64, max time.Duration) JitterModel {
	return player.UniformJitter(seed, max)
}

// ChannelJitter delays every event on one channel by a constant latency.
func ChannelJitter(channel string, latency time.Duration) JitterModel {
	return player.ChannelJitter(channel, latency)
}

// PlayResult is a playback simulation's outcome: the realized schedule,
// the trace, drift statistics and any Must-arc violations.
type PlayResult = player.Result

// playConfig collects the playback options.
type playConfig struct {
	opts player.Options
}

// PlayOption configures Play.
type PlayOption func(*playConfig)

// WithJitter installs the device latency model; nil means ideal devices.
func WithJitter(m JitterModel) PlayOption {
	return func(c *playConfig) { c.opts.Jitter = m }
}

// WithPlayRelaxation permits dropping May arcs to absorb latencies. It
// governs only drops beyond the plan's: the arcs a plan scheduled
// WithRelaxation dropped stay dropped during playback with or without it.
func WithPlayRelaxation() PlayOption {
	return func(c *playConfig) { c.opts.Relax = true }
}

// Play simulates presenting the plan on a device described by the options:
// the plan's own schedule perturbed by the device latencies, not a second
// planning pass.
func (p *Plan) Play(opts ...PlayOption) (*PlayResult, error) {
	var cfg playConfig
	for _, o := range opts {
		o(&cfg)
	}
	return player.PlaySchedule(p.schedule, cfg.opts)
}

// SeekReport classifies document state at a seek point: active leaves and
// the validity of every arc.
type SeekReport = player.SeekReport

// AnalyzeSeek reports what a reader lands on when jumping to time at.
func (p *Plan) AnalyzeSeek(at time.Duration) *SeekReport {
	return player.AnalyzeSeek(p.schedule, at)
}
