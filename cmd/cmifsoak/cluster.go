package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/cmif"
	"repro/internal/experiments"
)

// The cluster soak drives a LIVE cmifd -role node cluster through its
// ClusterClient while scripts/cluster_soak.sh kill -9s and rejoins nodes
// underneath it: writers stream acknowledged block puts, readers verify
// earlier writes through failover, and when the churn window closes the
// audit phase re-fetches EVERY acknowledged write and proves none was
// lost or corrupted. Content addressing makes the corruption check
// cryptographic — a block that comes back under its acked content
// address is byte-identical to what was written.

// clusterAck is one acknowledged write: enough to re-fetch and verify.
type clusterAck struct {
	Name string `json:"name"`
	ID   string `json:"id"`
}

// ClusterSoakReport is the machine-readable result cmifsoak -cluster
// writes (SOAK_cluster.json in the nightly artifact).
type ClusterSoakReport struct {
	Seeds   []string             `json:"seeds"`
	Seconds float64              `json:"seconds"`
	Workers int                  `json:"workers"`
	Env     experiments.BenchEnv `json:"env"`

	WritesAcked int64 `json:"writes_acked"`
	WriteErrors int64 `json:"write_errors"`
	Reads       int64 `json:"reads"`
	ReadErrors  int64 `json:"read_errors"`

	// MembersMin/MembersMax bound the membership size the client observed
	// during the run — churn shows up as MembersMin < MembersMax.
	MembersMin int `json:"members_min"`
	MembersMax int `json:"members_max"`

	AuditTotal   int     `json:"audit_total"`
	AuditMissing int     `json:"audit_missing"`
	AuditCorrupt int     `json:"audit_corrupt"`
	AuditSeconds float64 `json:"audit_seconds"`
}

// runClusterSoak drives the churn soak against the seed nodes and gates
// the result: zero acknowledged writes may be missing or corrupt, and
// reads must have kept working through the churn.
func runClusterSoak(ctx context.Context, seedList string, seconds, workers int, out string) error {
	seeds := splitSeeds(seedList)
	if len(seeds) == 0 {
		return fmt.Errorf("-cluster needs at least one node address")
	}
	if workers < 2 {
		workers = 2
	}

	cc, err := cmif.DialCluster(ctx, seeds)
	if err != nil {
		return fmt.Errorf("dial cluster: %w", err)
	}
	defer cc.Close()

	report := &ClusterSoakReport{
		Seeds:   seeds,
		Seconds: float64(seconds),
		Workers: workers,
		Env:     experiments.CaptureBenchEnv(),
	}

	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	loadCtx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()

	var (
		mu    sync.Mutex
		acked []clusterAck

		writesAcked, writeErrors atomic.Int64
		reads, readErrors        atomic.Int64
	)

	// Membership watcher: churn must be visible to the client for the
	// soak to have exercised failover at all.
	report.MembersMin = len(cc.Members())
	report.MembersMax = report.MembersMin
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(500 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-loadCtx.Done():
				return
			case <-tick.C:
				n := len(cc.Members())
				if n < report.MembersMin {
					report.MembersMin = n
				}
				if n > report.MembersMax {
					report.MembersMax = n
				}
			}
		}
	}()

	// Half the workers write, half read back and verify. Write errors
	// are expected while a node is down mid-kill; only acknowledged
	// writes join the audit set.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 17))
			for i := 0; loadCtx.Err() == nil; i++ {
				if w%2 == 0 {
					name := fmt.Sprintf("soak-w%d-%06d.img", w, i)
					blk := cmif.CaptureImage(name, 64, 64, uint64(w)<<32|uint64(i)+1)
					id, err := cc.PutBlock(loadCtx, blk)
					if err != nil {
						if loadCtx.Err() == nil {
							writeErrors.Add(1)
						}
						continue
					}
					writesAcked.Add(1)
					mu.Lock()
					acked = append(acked, clusterAck{Name: name, ID: id})
					mu.Unlock()
				} else {
					mu.Lock()
					var pick clusterAck
					if len(acked) > 0 {
						pick = acked[rng.Intn(len(acked))]
					}
					mu.Unlock()
					if pick.Name == "" {
						time.Sleep(50 * time.Millisecond)
						continue
					}
					blks, err := cc.Blocks(loadCtx, []string{pick.Name})
					if loadCtx.Err() != nil {
						return
					}
					reads.Add(1)
					if err != nil || len(blks) != 1 || blks[0] == nil || blks[0].ID != pick.ID {
						readErrors.Add(1)
					}
				}
			}
		}(w)
	}
	wg.Wait()

	report.WritesAcked = writesAcked.Load()
	report.WriteErrors = writeErrors.Load()
	report.Reads = reads.Load()
	report.ReadErrors = readErrors.Load()

	// The audit: the churn has settled (the script restarts every node it
	// kills before the window closes), so every acknowledged write must
	// come back under its acked content address. A handful of retries
	// absorbs a node still finishing its resync.
	auditStart := time.Now()
	mu.Lock()
	set := append([]clusterAck(nil), acked...)
	mu.Unlock()
	report.AuditTotal = len(set)
	auditCtx, auditCancel := context.WithTimeout(ctx, 2*time.Minute)
	defer auditCancel()
	for _, a := range set {
		ok, corrupt := auditOne(auditCtx, cc, a)
		if corrupt {
			report.AuditCorrupt++
		} else if !ok {
			report.AuditMissing++
		}
	}
	report.AuditSeconds = time.Since(auditStart).Seconds()

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "cmifsoak: wrote %s\n", out)
	fmt.Printf("cluster soak: %d writes acked (%d write errors), %d reads (%d errors), members %d..%d\n",
		report.WritesAcked, report.WriteErrors, report.Reads, report.ReadErrors,
		report.MembersMin, report.MembersMax)
	fmt.Printf("cluster audit: %d acked writes re-fetched in %.1fs, %d missing, %d corrupt\n",
		report.AuditTotal, report.AuditSeconds, report.AuditMissing, report.AuditCorrupt)

	var violations []string
	if report.WritesAcked == 0 {
		violations = append(violations, "no writes were acknowledged; the soak exercised nothing")
	}
	if report.AuditMissing > 0 {
		violations = append(violations, fmt.Sprintf("%d acknowledged writes are MISSING after the churn", report.AuditMissing))
	}
	if report.AuditCorrupt > 0 {
		violations = append(violations, fmt.Sprintf("%d acknowledged writes came back CORRUPT", report.AuditCorrupt))
	}
	if report.Reads > 0 && float64(report.ReadErrors) > 0.01*float64(report.Reads) {
		violations = append(violations, fmt.Sprintf("read error rate %d/%d exceeds 1%%; failover did not keep the corpus readable",
			report.ReadErrors, report.Reads))
	}
	if len(violations) == 0 {
		fmt.Fprintln(os.Stderr, "cmifsoak: cluster soak gate passed")
		return nil
	}
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "cmifsoak: cluster gate:", v)
	}
	return fmt.Errorf("%d cluster-soak violations", len(violations))
}

// auditOne re-fetches one acknowledged write, retrying briefly so a node
// mid-resync does not read as data loss. corrupt means the block came
// back under a different content address than was acknowledged.
func auditOne(ctx context.Context, cc *cmif.ClusterClient, a clusterAck) (ok, corrupt bool) {
	for attempt := 0; attempt < 6; attempt++ {
		if ctx.Err() != nil {
			return false, false
		}
		blks, err := cc.Blocks(ctx, []string{a.Name})
		if err == nil && len(blks) == 1 && blks[0] != nil {
			if blks[0].ID == a.ID {
				return true, false
			}
			return false, true
		}
		time.Sleep(time.Duration(attempt+1) * 500 * time.Millisecond)
	}
	return false, false
}

func splitSeeds(list string) []string {
	var seeds []string
	for _, s := range strings.Split(list, ",") {
		if s = strings.TrimSpace(s); s != "" {
			seeds = append(seeds, s)
		}
	}
	return seeds
}
