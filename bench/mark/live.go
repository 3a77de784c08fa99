package mark

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/cmif"
)

// liveSession is the author/follower pair: the author's goroutine issues
// the seeded edit cycle on one connection; the follower's goroutine holds
// a whole-document and a subtree subscription on the other connection
// and absorbs every delta. The pair is closed-loop end to end: the author
// issues its next edit once its reply has arrived and the follower has
// absorbed the delta. A lone follower reschedules more slowly than a
// lone author can submit, so an author waiting only for its own reply
// would measure a growing queue (and end in a shed subscription), not a
// latency. The session survives across phases — warm-up and the measured
// phase share one.
type liveSession struct {
	e    *env
	doc  *corpusDoc
	gen  *EditGen
	auth *cmif.Client
	foll *cmif.Client

	whole   *cmif.Subscription
	subtree *cmif.Subscription
}

// absorbed is what the follower reports per delta.
type absorbed struct {
	at  time.Time // when the whole-document Next returned its plan
	gen uint64    // the generation the replica then held
	err error
}

// openLiveSession subscribes the follower and prepares the author's
// generator over the workload's live document.
func openLiveSession(ctx context.Context, e *env) (*liveSession, error) {
	s := &liveSession{e: e, doc: e.liveDoc(), auth: e.clients[0], foll: e.clients[1]}
	// The author starts from what the server holds, not from the local
	// corpus copy, so a session opened after earlier traffic is in step.
	served, err := s.auth.OpenDoc(ctx, s.doc.name)
	if err != nil {
		return nil, fmt.Errorf("live: open %s: %w", s.doc.name, err)
	}
	if s.gen, err = NewEditGen(e.seed, served, s.doc.store); err != nil {
		return nil, fmt.Errorf("live: %s: %w", s.doc.name, err)
	}
	// Relaxation lets the follower's plan drop a May arc an edit made
	// unsatisfiable (DeepNest ships with such arcs) and keep following.
	plan := cmif.WithSubscribeSchedule(cmif.WithRelaxation(), cmif.WithDefaultLeafDuration(500*time.Millisecond))
	if s.whole, err = s.foll.Subscribe(ctx, s.doc.name, plan); err != nil {
		return nil, fmt.Errorf("live: subscribe: %w", err)
	}
	sub := "/" + served.Root().Child(0).Name()
	if s.subtree, err = s.foll.Subscribe(ctx, s.doc.name, plan, cmif.WithSubtree(sub)); err != nil {
		return nil, fmt.Errorf("live: subscribe %s: %w", sub, err)
	}
	return s, nil
}

func (s *liveSession) close() {
	if s.whole != nil {
		s.whole.Close()
	}
	if s.subtree != nil {
		s.subtree.Close()
	}
}

// run drives one live phase under the stop rule. With a tracer the two
// facade calls of each author op are spanned.
func (s *liveSession) run(ctx context.Context, rule stopRule, tr *traceSink) phaseResult {
	var res phaseResult
	followCtx, stopFollower := context.WithCancel(ctx)
	followerExit := make(chan struct{})
	// Unbuffered: the follower hands over each delta and the author is
	// always there to take it, or the phase is over.
	deltas := make(chan absorbed)
	disp := newDispenser(rule, len(authorRound), 0)

	meter := s.e.beginPhase()
	go func() {
		defer close(followerExit)
		s.follow(followCtx, deltas)
	}()
	s.author(ctx, disp, deltas, meter.start, tr, &res)
	meter.end(&res)
	// Every delta is absorbed; the follower is parked in Next.
	stopFollower()
	<-followerExit
	return res
}

// author is the author's loop.
func (s *liveSession) author(ctx context.Context, disp *dispenser, deltas <-chan absorbed,
	phaseStart time.Time, tr *traceSink, res *phaseResult) {
	timed := func(opID int64, name string, into *[]time.Duration, f func() error) error {
		var id int32
		if tr != nil {
			id = tr.Start(opID, 0, "transport", name)
		}
		t0 := time.Now()
		err := f()
		*into = append(*into, time.Since(t0))
		if tr != nil {
			tr.End(id)
		}
		return err
	}
	var lastGen uint64
	for {
		i, ok := disp.take()
		if !ok {
			return
		}
		res.attempted++
		err := func() error {
			op, err := s.gen.Next()
			if err != nil {
				return err
			}
			t0 := time.Now()
			if op.Block != nil {
				if err := timed(int64(i), "transport.putblk", &res.putBlocks, func() error {
					id, err := s.auth.PutBlock(ctx, op.Block)
					if err == nil && id != op.Block.ID {
						err = fmt.Errorf("content address %s, want %s", id, op.Block.ID)
					}
					return err
				}); err != nil {
					return fmt.Errorf("put block: %w", err)
				}
			}
			submitted := time.Now()
			var gen uint64
			if err := timed(int64(i), "transport.submit", &res.submits, func() (err error) {
				gen, err = s.auth.SubmitEdit(ctx, s.doc.name, op.Batch)
				return err
			}); err != nil {
				return fmt.Errorf("%c: %w", op.Kind, err)
			}
			replied := time.Now()
			if gen <= lastGen {
				return fmt.Errorf("%c: acknowledged generation %d after %d", op.Kind, gen, lastGen)
			}
			lastGen = gen
			if err := s.gen.Commit(op); err != nil {
				return err
			}
			s.e.userBytes += op.UserBytes()
			var d absorbed
			select {
			case d = <-deltas:
			case <-ctx.Done():
				return ctx.Err()
			}
			switch {
			case d.err != nil:
				return fmt.Errorf("follower: %w", d.err)
			case d.gen != gen:
				return fmt.Errorf("%c: follower holds generation %d, acknowledged %d", op.Kind, d.gen, gen)
			}
			res.ops = append(res.ops, opSample{end: replied.Sub(phaseStart), lat: replied.Sub(t0)})
			res.deltas = append(res.deltas, d.at.Sub(submitted))
			return nil
		}()
		if err != nil {
			// The pair is out of step; nothing after this would mean
			// anything, and the run has failed anyway.
			res.fail(fmt.Errorf("author op %d: %w", i, err))
			disp.stop()
			return
		}
	}
}

// follow is the follower's loop: every accepted edit reaches it once on
// each subscription. It reports the moment the whole-document
// subscription returned the rescheduled plan, after the subtree
// subscription has caught up as well.
func (s *liveSession) follow(ctx context.Context, deltas chan<- absorbed) {
	for {
		var d absorbed
		if _, d.err = s.whole.Next(ctx); d.err == nil {
			d.at, d.gen = time.Now(), s.whole.Generation()
			_, d.err = s.subtree.Next(ctx)
		}
		if ctx.Err() != nil {
			return
		}
		select {
		case deltas <- d:
		case <-ctx.Done():
			return
		}
		if d.err != nil {
			return
		}
	}
}

// verify is the end-of-run check of a live session: no subscription ever
// resynchronized, and the follower's replica, the author's mirror and a
// fresh fetch of the served document are byte-identical.
func (s *liveSession) verify(ctx context.Context) error {
	if n := s.whole.Resyncs() + s.subtree.Resyncs(); n != 0 {
		return fmt.Errorf("live: %d subscription resyncs, want 0", n)
	}
	served, err := s.auth.OpenDoc(ctx, s.doc.name)
	if err != nil {
		return fmt.Errorf("live: final fetch: %w", err)
	}
	want, err := canonical(served)
	if err != nil {
		return err
	}
	for who, d := range map[string]*cmif.Document{"follower replica": s.whole.Document(), "author mirror": s.gen.Mirror()} {
		got, err := canonical(d)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("live: %s differs from the served document", who)
		}
	}
	return nil
}

// canonical is the byte form documents are compared in.
func canonical(d *cmif.Document) ([]byte, error) {
	return cmif.Encode(d, cmif.WithFormat(cmif.FormatBinary))
}
