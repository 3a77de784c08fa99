package mark

import (
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"repro/cmif"
	"repro/internal/chunker"
	"repro/internal/core"
	"repro/internal/edge"
	"repro/internal/sched"
)

// probeResult holds the micro-probe readings of a traced run: isolated
// calls into layer entry points on the workload's own documents and
// payloads, for layers whose cost no facade call exposes on its own.
type probeResult struct {
	getRefNS, putMBs, verifyMBs  float64
	decodeMS, encodeMS, docBytes float64
	solveSerialMS                float64
	rescheduleMS, editApplyUS    float64
	splitMBs                     float64
	diskGetMS                    float64
}

const mb = 1 << 20

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// runProbes runs every probe single-threaded after the tiers have
// stopped, so nothing else competes for the two cores.
func (e *env) runProbes(dir string) (probeResult, error) {
	var p probeResult
	var blocks []*cmif.Block
	var payloadBytes int64
	for _, d := range e.docs {
		d.store.Each(func(b *cmif.Block) bool {
			blocks = append(blocks, b)
			payloadBytes += int64(len(b.Payload))
			return true
		})
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].ID < blocks[j].ID })

	if len(blocks) > 0 {
		// media: zero-copy lookups in batches of 100, ingest, verify.
		merged := cmif.NewStore()
		for _, b := range blocks {
			merged.Put(b)
		}
		var perCall []float64
		for batch := 0; batch < 200; batch++ {
			start := time.Now()
			for i := 0; i < 100; i++ {
				if _, ok := merged.GetRef(blocks[(batch*100+i)%len(blocks)].ID); !ok {
					return p, fmt.Errorf("probe: GetRef missed a stored block")
				}
			}
			perCall = append(perCall, float64(time.Since(start).Nanoseconds())/100)
		}
		p.getRefNS = Median(perCall)

		var puts, verifies, splits []float64
		for rep := 0; rep < 3; rep++ {
			fresh := cmif.NewStore()
			start := time.Now()
			for _, b := range blocks {
				fresh.Put(b)
			}
			puts = append(puts, float64(payloadBytes)/mb/time.Since(start).Seconds())

			start = time.Now()
			if err := fresh.VerifyAll(); err != nil {
				return p, fmt.Errorf("probe: %w", err)
			}
			verifies = append(verifies, float64(fresh.TotalBytes())/mb/time.Since(start).Seconds())

			start = time.Now()
			for _, b := range blocks {
				chunker.Split(b.Payload, chunker.Config{})
			}
			splits = append(splits, float64(payloadBytes)/mb/time.Since(start).Seconds())
		}
		p.putMBs, p.verifyMBs, p.splitMBs = Median(puts), Median(verifies), Median(splits)

		// edge: disk-cache reads of blocks it was handed earlier.
		cache, err := edge.OpenDiskCache(filepath.Join(dir, "probe-diskcache"), 1<<30)
		if err != nil {
			return p, fmt.Errorf("probe: %w", err)
		}
		sample := blocks
		if len(sample) > 64 {
			sample = sample[:64]
		}
		for _, b := range sample {
			cache.Put(b.Name, b)
		}
		var gets []float64
		for rep := 0; rep < 3; rep++ {
			for _, b := range sample {
				start := time.Now()
				if _, ok := cache.Get(b.ID); !ok {
					return p, fmt.Errorf("probe: disk cache lost block %s", b.Name)
				}
				gets = append(gets, msSince(start))
			}
		}
		p.diskGetMS = Median(gets)
	}

	// codec and the serial solver, over every document.
	var decodes, encodes, solves []float64
	var textBytes int64
	for _, d := range e.docs {
		text, err := cmif.Encode(d.doc)
		if err != nil {
			return p, err
		}
		textBytes += int64(len(text))
		cd, err := core.NewDocument(d.doc.Root())
		if err != nil {
			return p, err
		}
		g, err := sched.Build(cd, sched.Options{DefaultLeafDuration: 500 * time.Millisecond})
		if err != nil {
			return p, err
		}
		for rep := 0; rep < 8; rep++ {
			start := time.Now()
			if _, err := cmif.Encode(d.doc); err != nil {
				return p, err
			}
			encodes = append(encodes, msSince(start))
			start = time.Now()
			if _, err := cmif.Decode(text); err != nil {
				return p, err
			}
			decodes = append(decodes, msSince(start))
			start = time.Now()
			if _, err := g.Solve(sched.SolveOptions{Relax: true}); err != nil {
				return p, err
			}
			solves = append(solves, msSince(start))
		}
	}
	p.decodeMS, p.encodeMS, p.solveSerialMS = Median(decodes), Median(encodes), Median(solves)
	p.docBytes = float64(textBytes) / float64(len(e.docs))

	// edit engine and incremental reschedule, on the live document with
	// the author's own op cycle.
	live := e.liveDoc()
	doc := live.doc.Clone()
	gen, err := NewEditGen(e.seed, doc, live.store)
	if err != nil {
		return p, err
	}
	plan, err := cmif.Schedule(doc, cmif.WithRelaxation(), cmif.WithDefaultLeafDuration(500*time.Millisecond))
	if err != nil {
		return p, fmt.Errorf("probe: schedule live document: %w", err)
	}
	var applies, resched []float64
	for i := 0; i < 10*len(authorRound); i++ {
		op, err := gen.Next()
		if err != nil {
			return p, err
		}
		start := time.Now()
		if err := op.Batch.Apply(doc); err != nil {
			return p, fmt.Errorf("probe: edit apply: %w", err)
		}
		applies = append(applies, float64(time.Since(start).Nanoseconds())/1e3)
		start = time.Now()
		if plan, err = plan.Reschedule(); err != nil {
			return p, fmt.Errorf("probe: reschedule: %w", err)
		}
		resched = append(resched, msSince(start))
		if err := gen.Commit(op); err != nil {
			return p, err
		}
	}
	p.editApplyUS, p.rescheduleMS = Median(applies), Median(resched)
	return p, nil
}
