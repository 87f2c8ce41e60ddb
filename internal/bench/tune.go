package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"lsmkv"
	"lsmkv/internal/workload"
)

// E17: online self-tuning across a workload shift. Three engines see the
// same two-phase workload — a write-heavy ingest, then an abrupt flip to
// a read-heavy mix of point lookups and short range scans. A static
// write-tuned engine (tiering) keeps paying tiering's read tax after the
// flip: scans merge every run in every level, and filters cannot screen
// a scan. A static read-tuned engine (leveling) is the best
// configuration for the second phase but ingests slowest in the first.
// The tuned engine starts from the write-tuned configuration and lets
// the online controller walk it across the continuum when the mix
// flips. The claim: after an adaptation window the tuned engine recovers
// at least 80% of the best static engine's post-shift read throughput,
// and its event log tells the story move by move.
func E17(scale Scale) ([]*Table, error) {
	cfg := config(scale)
	adapt := scale.window(6*time.Second, 12*time.Second)
	measure := scale.window(4*time.Second, 6*time.Second)
	const scanLimit = 50

	writeTuned := func() *lsmkv.Options {
		return &lsmkv.Options{
			Layout:     lsmkv.Tiered,
			SizeRatio:  6,
			CacheBytes: 256 << 10,
			BitsPerKey: 10,
		}
	}
	readTuned := func() *lsmkv.Options {
		return &lsmkv.Options{
			Layout:        lsmkv.Leveled,
			SizeRatio:     6,
			CacheBytes:    256 << 10,
			BitsPerKey:    10,
			MonkeyFilters: true,
		}
	}

	type result struct {
		name        string
		ingestKops  float64
		readsPerSec float64
		runs        int
		tunerMoves  int
		tunerEvents []string
	}

	run := func(db *lsmkv.DB, res *result) error {
		// Phase A: write-heavy ingest of the whole key space.
		start := time.Now()
		if err := cfg.fill(db, cfg.keys, scrambled(cfg.keys)); err != nil {
			return err
		}
		res.ingestKops = float64(cfg.keys) / time.Since(start).Seconds() / 1000

		// One phase-B operation: 80% point gets, 10% short scans, 10%
		// writes during adaptation; the measured window drops the writes
		// (pure reads) so both engines are measured on read cost alone,
		// not on how their compaction debt throttles the interleaved puts.
		rng := rand.New(rand.NewSource(17))
		op := func(i int, withWrites bool) (isRead bool, err error) {
			k := workload.ScrambleKey(rng.Int63n(cfg.keys), cfg.keys)
			switch {
			case withWrites && i%10 == 0:
				return false, db.Put(workload.Key(k), workload.Value(k, cfg.valueSize))
			case i%10 == 1:
				n := 0
				return true, db.Scan(workload.Key(k), nil, func(_, _ []byte) bool {
					n++
					return n < scanLimit
				})
			default:
				return true, get(db, workload.Key(k))
			}
		}

		// Adaptation window: the tuner needs confirming samples, cooldowns,
		// and compactions to express its moves.
		deadline := time.Now().Add(adapt)
		for i := 0; time.Now().Before(deadline); i++ {
			if _, err := op(i, true); err != nil {
				return err
			}
		}

		// Settle, then measure: freeze the tuner (its decisions are made;
		// mid-window moves would blur what is being measured) and let every
		// engine drain its scheduled flushes and compactions, so each
		// config is measured on its own settled shape — tiering stays
		// multi-run per level, and the tuned engine's reshaping merges
		// finish expressing the shape the controller chose.
		db.FreezeTuning(true)
		if err := db.Compact(); err != nil {
			return err
		}
		res.runs = db.TotalRuns()

		// Measured window.
		var reads int64
		t0 := time.Now()
		deadline = time.Now().Add(measure)
		for i := 0; time.Now().Before(deadline); i++ {
			isRead, err := op(i, false)
			if err != nil {
				return err
			}
			if isRead {
				reads++
			}
		}
		res.readsPerSec = float64(reads) / time.Since(t0).Seconds()

		for _, e := range db.Events() {
			switch e.Type {
			case "tune":
				res.tunerMoves++
				res.tunerEvents = append(res.tunerEvents, e.Detail)
			case "retune":
				res.tunerEvents = append(res.tunerEvents, "applied: "+e.Detail)
			}
		}
		return nil
	}

	tunedOpts := writeTuned()
	tunedOpts.AutoTune = true
	tunedOpts.AutoTuneInterval = 100 * time.Millisecond

	configs := []struct {
		name string
		opts *lsmkv.Options
	}{
		{"static write-tuned (tiered T=6)", writeTuned()},
		{"static read-tuned (leveled T=6)", readTuned()},
		{"tuned (starts tiered, -tune)", tunedOpts},
	}
	results := make([]result, len(configs))
	for i, c := range configs {
		results[i].name = c.name
		if err := cfg.cell(c.opts, func(db *lsmkv.DB) error { return run(db, &results[i]) }); err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
	}

	best := results[1].readsPerSec // the read-tuned static engine
	t := NewTable("config", "ingest Kops/s", "post-shift reads/s", "vs best static", "sorted runs", "tuner moves")
	for _, r := range results {
		frac := 0.0
		if best > 0 {
			frac = r.readsPerSec / best
		}
		t.Row(r.name, r.ingestKops, r.readsPerSec, fmt.Sprintf("%.0f%%", frac*100), r.runs, r.tunerMoves)
	}

	tuned := results[2]
	var note strings.Builder
	fmt.Fprintf(&note, "\nclaim check: tuned recovered %.0f%% of the best static post-shift read throughput (floor 80%%)\n",
		100*tuned.readsPerSec/best)
	if tuned.tunerMoves == 0 {
		note.WriteString("warning: tuner applied no moves during the run\n")
	}
	note.WriteString("\ntuner decision log (signals | knob delta | rationale):")
	story := tuned.tunerEvents
	if len(story) > 12 {
		fmt.Fprintf(&note, "\n  ... %d earlier events elided ...", len(story)-12)
		story = story[len(story)-12:]
	}
	for _, line := range story {
		fmt.Fprintf(&note, "\n  %s", strings.TrimSpace(line))
	}
	t.Note = note.String()
	return []*Table{t}, nil
}
