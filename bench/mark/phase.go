package mark

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// stopRule ends a phase after a fixed number of schedule rounds, or at
// the first round boundary once seconds have passed, whichever comes
// first. A zero field does not apply.
type stopRule struct {
	rounds  int
	seconds float64
}

// dispenser hands out op indices to the client goroutines and applies
// the stop rule. A phase always ends on a round boundary, so every phase
// is a whole number of identical op mixes.
type dispenser struct {
	mu        sync.Mutex
	rule      stopRule
	roundSize int
	start     time.Time
	next      int // next index to hand out
	issued    int
	stopped   bool
}

func newDispenser(rule stopRule, roundSize, from int) *dispenser {
	return &dispenser{rule: rule, roundSize: roundSize, start: time.Now(), next: from}
}

// take returns the next op index, or false once the phase is over.
func (d *dispenser) take() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped {
		return 0, false
	}
	if d.issued%d.roundSize == 0 {
		if (d.rule.rounds > 0 && d.issued >= d.rule.rounds*d.roundSize) ||
			(d.rule.seconds > 0 && time.Since(d.start).Seconds() >= d.rule.seconds) {
			d.stopped = true
			return 0, false
		}
	}
	i := d.next
	d.next++
	d.issued++
	return i, true
}

// stop ends the phase early (an op failed; the run is lost anyway).
func (d *dispenser) stop() {
	d.mu.Lock()
	d.stopped = true
	d.mu.Unlock()
}

// opSample is one completed, correct op.
type opSample struct {
	end time.Duration // completion, from the phase start
	lat time.Duration
}

// phaseResult is everything one phase measured.
type phaseResult struct {
	ops       []opSample
	attempted int
	failed    int
	firstErr  error

	wall time.Duration
	cpu  time.Duration // process user+sys over the phase
	wire int64         // bytes sent+received on the client connections

	mallocs    uint64
	allocBytes uint64
	gcPauseNS  uint64

	// deltas are the author-to-follower latencies of a live phase.
	deltas []time.Duration
	// putBlocks and submits time the two facade calls of author ops.
	putBlocks, submits []time.Duration
}

func (r *phaseResult) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// latencies returns the op latencies in completion order.
func (r *phaseResult) latencies() []time.Duration {
	ops := append([]opSample(nil), r.ops...)
	sort.Slice(ops, func(i, j int) bool { return ops[i].end < ops[j].end })
	out := make([]time.Duration, len(ops))
	for i, s := range ops {
		out[i] = s.lat
	}
	return out
}

func (r *phaseResult) ends() []time.Duration {
	out := make([]time.Duration, len(r.ops))
	for i, s := range r.ops {
		out[i] = s.end
	}
	return out
}

// phaseMeter brackets a phase with the process-wide readings.
type phaseMeter struct {
	e     *env
	start time.Time
	cpu   time.Duration
	wire  int64
	mem   runtime.MemStats
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (e *env) beginPhase() *phaseMeter {
	m := &phaseMeter{e: e, wire: e.wireBytes()}
	runtime.ReadMemStats(&m.mem)
	m.cpu = cpuTime()
	m.start = time.Now()
	return m
}

func (m *phaseMeter) end(r *phaseResult) {
	r.wall = time.Since(m.start)
	r.cpu = cpuTime() - m.cpu
	r.wire = m.e.wireBytes() - m.wire
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.mallocs = after.Mallocs - m.mem.Mallocs
	r.allocBytes = after.TotalAlloc - m.mem.TotalAlloc
	r.gcPauseNS = after.PauseTotalNs - m.mem.PauseTotalNs
}

// runViews drives the view schedule from index `from` with one goroutine
// per client connection, closed loop: a reader issues its next view only
// after the previous one returned. With a tracer, ops run the staged
// pipeline under spans; without, the facade's RunPipeline.
func (e *env) runViews(ctx context.Context, from int, rule stopRule, tr *traceSink) phaseResult {
	var (
		res  phaseResult
		mu   sync.Mutex
		wg   sync.WaitGroup
		disp = newDispenser(rule, e.wl.roundSize(), from)
	)
	meter := e.beginPhase()
	for w := 0; w < Clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := e.clients[w]
			var local []opSample
			var attempted int
			var errs []error
			for {
				i, ok := disp.take()
				if !ok {
					break
				}
				op := e.views.At(i)
				attempted++
				t0 := time.Now()
				var err error
				if tr != nil {
					err = e.viewTraced(ctx, c, op, tr, int64(i))
				} else {
					err = e.view(ctx, c, op)
				}
				now := time.Now()
				if err != nil {
					errs = append(errs, fmt.Errorf("view op %d (%s on %s): %w",
						i, e.docs[op.Doc].name, Profiles[op.Profile].Name, err))
					continue
				}
				local = append(local, opSample{end: now.Sub(meter.start), lat: now.Sub(t0)})
			}
			mu.Lock()
			res.ops = append(res.ops, local...)
			res.attempted += attempted
			for _, err := range errs {
				res.fail(err)
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	meter.end(&res)
	return res
}
