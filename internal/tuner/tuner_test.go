package tuner

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"lsmkv/internal/core"
	"lsmkv/internal/cost"
	"lsmkv/internal/iostat"
	"lsmkv/internal/vfs"
)

// fakeTarget is a scriptable engine: tests load counters between Sample
// calls and inspect the Retune history. It mirrors core.Retune's
// zero-means-keep semantics so the tuner sees realistic round-trips.
type fakeTarget struct {
	mu      sync.Mutex
	tun     core.Tunables
	snap    iostat.Snapshot
	profile core.TuningProfile
	events  *iostat.EventLog
	history []core.Tunables
	err     error
}

func newFakeTarget() *fakeTarget {
	return &fakeTarget{
		tun: core.Tunables{
			SizeRatio:         10,
			K:                 1,
			Z:                 1,
			FilterBitsPerKey:  10,
			L0SlowdownTrigger: 8,
			L0StopTrigger:     12,
			SlowdownMaxDelay:  time.Millisecond,
		},
		profile: core.TuningProfile{
			Entries:       1_000_000,
			DiskBytes:     128_000_000,
			MemtableBytes: 4 << 20,
			BlockSize:     4096,
			MonkeyFilters: true,
		},
		events: iostat.NewEventLog(),
	}
}

func (f *fakeTarget) Tunables() core.Tunables {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tun
}

func (f *fakeTarget) Retune(t core.Tunables) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err != nil {
		return f.err
	}
	dst, src := reflect.ValueOf(&f.tun).Elem(), reflect.ValueOf(t)
	for i := 0; i < src.NumField(); i++ {
		if !src.Field(i).IsZero() {
			dst.Field(i).Set(src.Field(i))
		}
	}
	f.history = append(f.history, f.tun)
	return nil
}

func (f *fakeTarget) Stats() iostat.Snapshot {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.snap
}

func (f *fakeTarget) TuningProfile() core.TuningProfile {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.profile
}

func (f *fakeTarget) EventLog() *iostat.EventLog { return f.events }

// serve loads one interval of traffic onto the counters.
func (f *fakeTarget) serve(reads, writes int64) {
	f.mu.Lock()
	f.snap.PointLookups += reads
	f.snap.WriteOps += writes
	f.mu.Unlock()
}

func (f *fakeTarget) moves() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.history)
}

// fastConfig removes the time gates so tests can drive Sample directly:
// every interval is signal, one confirming sample suffices, and the
// cooldown is over by the next call.
func fastConfig() Config {
	return Config{
		Interval:       time.Hour, // unused: tests call Sample directly
		Cooldown:       time.Nanosecond,
		ConfirmSamples: 1,
		MinOps:         1,
	}
}

func TestFirstSampleOnlyBaselines(t *testing.T) {
	f := newFakeTarget()
	tn := New(f, fastConfig())
	f.serve(1000, 0)
	tn.Sample()
	if got := f.moves(); got != 0 {
		t.Fatalf("baseline sample applied %d moves, want 0", got)
	}
	if st := tn.Status(); st.Samples != 0 {
		t.Fatalf("baseline counted as sample: %d", st.Samples)
	}
}

func TestQuietIntervalIsSkipped(t *testing.T) {
	f := newFakeTarget()
	cfg := fastConfig()
	cfg.MinOps = 64
	tn := New(f, cfg)
	tn.Sample() // baseline
	f.serve(10, 5)
	tn.Sample()
	if got := f.moves(); got != 0 {
		t.Fatalf("quiet interval applied %d moves, want 0", got)
	}
	st := tn.Status()
	if st.Samples != 1 {
		t.Fatalf("samples = %d, want 1", st.Samples)
	}
	if st.LastSignals.Ops != 0 {
		t.Fatalf("quiet interval recorded signals: %+v", st.LastSignals)
	}
}

// TestHysteresisHoldsOnNoisySteadyWorkload parks the engine at the
// modeled optimum for a balanced mix and feeds intervals whose read
// fraction jitters around it. The minGain band plus EWMA smoothing must
// keep the tuner still: zero applied moves, no oscillation.
func TestHysteresisHoldsOnNoisySteadyWorkload(t *testing.T) {
	f := newFakeTarget()
	tn := New(f, fastConfig())

	// Find the design the tuner itself would consider optimal for a
	// steady 50/50 mix, and start there.
	sys := systemFrom(f.profile, f.tun.FilterBitsPerKey)
	w := workloadFromSignals(Signals{ReadFrac: 0.5})
	best := cost.Navigate(sys, w, tn.candidates())
	f.tun.SizeRatio = best.Design.T
	f.tun.K = best.Design.K
	f.tun.Z = best.Design.Z

	tn.Sample() // baseline
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			f.serve(45, 55)
		} else {
			f.serve(55, 45)
		}
		tn.Sample()
	}
	if got := f.moves(); got != 0 {
		t.Fatalf("tuner oscillated on noisy steady workload: %d moves, history %+v", got, f.history)
	}
	if st := tn.Status(); st.Samples != 20 {
		t.Fatalf("samples = %d, want 20", st.Samples)
	}
}

// TestMonotoneResponseToSteppedReadRatio starts from a write-tuned
// tiering layout and steps the workload to read-heavy. The tuner must
// walk K and Z down monotonically (half the distance per move, never
// back up) and settle at the modeled optimum without overshoot.
func TestMonotoneResponseToSteppedReadRatio(t *testing.T) {
	f := newFakeTarget()
	f.tun.SizeRatio = 10
	f.tun.K = 9
	f.tun.Z = 9
	tn := New(f, fastConfig())

	tn.Sample() // baseline
	for i := 0; i < 40; i++ {
		f.serve(950, 50)
		tn.Sample()
	}
	if f.moves() == 0 {
		t.Fatal("tuner never moved under a stepped read-heavy workload")
	}
	prevK, prevZ := 9, 9
	for i, h := range f.history {
		if h.K > prevK || h.Z > prevZ {
			t.Fatalf("move %d not monotone: K %d->%d Z %d->%d", i, prevK, h.K, prevZ, h.Z)
		}
		prevK, prevZ = h.K, h.Z
	}
	// Read-optimized means merge-greedy levels: Z must reach 1, and the
	// tree must have left deep tiering behind.
	final := f.Tunables()
	if final.Z != 1 {
		t.Fatalf("final Z = %d, want 1 (read-optimized)", final.Z)
	}
	if final.K >= 9 {
		t.Fatalf("final K = %d, want < 9", final.K)
	}
	// Settled: the last sampled intervals must not have moved it again.
	tail := f.moves()
	for i := 0; i < 5; i++ {
		f.serve(950, 50)
		tn.Sample()
	}
	if f.moves() != tail {
		t.Fatalf("tuner still moving after convergence: %d -> %d moves", tail, f.moves())
	}
}

// TestCooldownSpacesMoves verifies that after one applied move the tuner
// holds still for the cooldown window even though every sample keeps
// voting to move.
func TestCooldownSpacesMoves(t *testing.T) {
	f := newFakeTarget()
	f.tun.K = 9
	f.tun.Z = 9
	cfg := fastConfig()
	cfg.Cooldown = time.Hour
	tn := New(f, cfg)

	tn.Sample() // baseline
	for i := 0; i < 10; i++ {
		f.serve(950, 50)
		tn.Sample()
	}
	if got := f.moves(); got != 1 {
		t.Fatalf("moves within one cooldown window = %d, want exactly 1", got)
	}
}

func TestFreezeBlocksMovesThawResumes(t *testing.T) {
	f := newFakeTarget()
	f.tun.K = 9
	f.tun.Z = 9
	tn := New(f, fastConfig())
	tn.Freeze()

	tn.Sample() // baseline
	for i := 0; i < 5; i++ {
		f.serve(950, 50)
		tn.Sample()
	}
	if got := f.moves(); got != 0 {
		t.Fatalf("frozen tuner applied %d moves", got)
	}
	if st := tn.Status(); !st.Frozen {
		t.Fatal("Status().Frozen = false after Freeze")
	}

	tn.Thaw()
	f.serve(950, 50)
	tn.Sample()
	if got := f.moves(); got == 0 {
		t.Fatal("thawed tuner never moved")
	}
}

func TestFilterBitsFollowReadMix(t *testing.T) {
	// Read-heavy with a leaking filter: bits go up by one.
	f := newFakeTarget()
	tn := New(f, fastConfig())
	tn.Sample() // baseline
	f.serve(900, 100)
	f.mu.Lock()
	f.snap.FilterProbes += 1000
	f.snap.FilterFalsePositives += 100 // FPR 0.1 > 0.02
	f.mu.Unlock()
	tn.Sample()
	if got := f.Tunables().FilterBitsPerKey; got != 11 {
		t.Fatalf("read-heavy leaky filter: bits/key = %v, want 11", got)
	}

	// Write-heavy: bits come back down.
	f2 := newFakeTarget()
	tn2 := New(f2, fastConfig())
	tn2.Sample() // baseline
	f2.serve(50, 950)
	tn2.Sample()
	if got := f2.Tunables().FilterBitsPerKey; got != 9 {
		t.Fatalf("write-heavy: bits/key = %v, want 9", got)
	}
}

func TestL0TriggerFollowsReadMix(t *testing.T) {
	// Read-heavy: the L0 compaction trigger steps down one per applied
	// move and floors at 2 — every L0 run joins every read.
	f := newFakeTarget()
	f.tun.L0CompactionTrigger = 4
	tn := New(f, fastConfig())
	tn.Sample() // baseline
	for i := 0; i < 6; i++ {
		f.serve(950, 50)
		tn.Sample()
	}
	if got := f.Tunables().L0CompactionTrigger; got != 2 {
		t.Fatalf("read-heavy: L0 trigger = %d, want floor 2", got)
	}

	// Write-heavy: it climbs back up and caps at 8.
	f2 := newFakeTarget()
	f2.tun.L0CompactionTrigger = 4
	tn2 := New(f2, fastConfig())
	tn2.Sample() // baseline
	for i := 0; i < 8; i++ {
		f2.serve(50, 950)
		tn2.Sample()
	}
	if got := f2.Tunables().L0CompactionTrigger; got != 8 {
		t.Fatalf("write-heavy: L0 trigger = %d, want cap 8", got)
	}

	// An engine that reports no trigger (zero) is left alone.
	f3 := newFakeTarget()
	tn3 := New(f3, fastConfig())
	tn3.Sample() // baseline
	f3.serve(950, 50)
	tn3.Sample()
	if got := f3.Tunables().L0CompactionTrigger; got != 0 {
		t.Fatalf("zero trigger moved to %d", got)
	}
}

func TestSlowdownBandWidensOnStall(t *testing.T) {
	f := newFakeTarget()
	tn := New(f, fastConfig())
	tn.Sample() // baseline
	f.serve(500, 500)
	f.mu.Lock()
	f.snap.WriteStalls++
	f.snap.WriteStallNs += int64(50 * time.Millisecond)
	f.mu.Unlock()
	tn.Sample()
	got := f.Tunables()
	if got.L0SlowdownTrigger != 7 {
		t.Fatalf("l0-slowdown = %d after stall, want 7", got.L0SlowdownTrigger)
	}
	if got.SlowdownMaxDelay != 2*time.Millisecond {
		t.Fatalf("slowdown-max-delay = %v after stall, want 2ms", got.SlowdownMaxDelay)
	}
	st := tn.Status()
	if len(st.Decisions) == 0 || !strings.Contains(st.Decisions[len(st.Decisions)-1].Rationale, "widen slowdown band") {
		t.Fatalf("decision rationale missing stall story: %+v", st.Decisions)
	}
}

func TestSlowdownCapRelaxesWhenOverdamped(t *testing.T) {
	f := newFakeTarget()
	// Park the shape at the write-heavy optimum so only the band rule
	// fires (isolates the assertion from shape moves).
	tn := New(f, fastConfig())
	sys := systemFrom(f.profile, f.tun.FilterBitsPerKey)
	w := workloadFromSignals(Signals{ReadFrac: 0.05})
	best := cost.Navigate(sys, w, tn.candidates())
	f.tun.SizeRatio = best.Design.T
	f.tun.K = best.Design.K
	f.tun.Z = best.Design.Z

	tn.Sample() // baseline
	f.serve(50, 950)
	f.mu.Lock()
	f.snap.WriteSlowdownNs += int64(time.Hour) // >> 10% of any test interval
	f.mu.Unlock()
	tn.Sample()
	if got := f.Tunables().SlowdownMaxDelay; got != 500*time.Microsecond {
		t.Fatalf("slowdown-max-delay = %v, want 500µs", got)
	}
}

func TestEveryMoveIsAudited(t *testing.T) {
	f := newFakeTarget()
	f.tun.K = 9
	f.tun.Z = 9
	tn := New(f, fastConfig())
	tn.Sample() // baseline
	for i := 0; i < 6; i++ {
		f.serve(950, 50)
		tn.Sample()
	}
	moves := f.moves()
	if moves == 0 {
		t.Fatal("no moves to audit")
	}
	var tuneEvents int
	for _, e := range f.events.Events() {
		if e.Type == iostat.EventTune {
			tuneEvents++
			if !strings.Contains(e.Detail, "|") || !strings.Contains(e.Detail, "ops=") {
				t.Fatalf("tune event detail missing signals/delta/rationale: %q", e.Detail)
			}
		}
	}
	if tuneEvents != moves {
		t.Fatalf("%d applied moves but %d tune events", moves, tuneEvents)
	}
	st := tn.Status()
	if int(st.Moves) != moves {
		t.Fatalf("Status.Moves = %d, want %d", st.Moves, moves)
	}
	if len(st.Decisions) != moves {
		t.Fatalf("Status.Decisions has %d entries, want %d", len(st.Decisions), moves)
	}
	if st.TargetDesign == "" {
		t.Fatal("Status.TargetDesign empty after moves")
	}
}

func TestStartStopLoop(t *testing.T) {
	f := newFakeTarget()
	cfg := fastConfig()
	cfg.Interval = time.Millisecond
	tn := New(f, cfg)
	tn.Start()
	tn.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for tn.Status().Samples == 0 && time.Now().Before(deadline) {
		f.serve(100, 100)
		time.Sleep(2 * time.Millisecond)
	}
	tn.Stop()
	tn.Stop() // idempotent
	st := tn.Status()
	if st.Samples == 0 {
		t.Fatal("background loop never sampled")
	}
	if st.Running {
		t.Fatal("Status().Running = true after Stop")
	}
}

func TestRetuneErrorDoesNotRecordDecision(t *testing.T) {
	f := newFakeTarget()
	f.tun.K = 9
	f.tun.Z = 9
	f.err = core.ErrClosed
	tn := New(f, fastConfig())
	tn.Sample() // baseline
	for i := 0; i < 3; i++ {
		f.serve(950, 50)
		tn.Sample()
	}
	st := tn.Status()
	if st.Moves != 0 || len(st.Decisions) != 0 {
		t.Fatalf("rejected retunes recorded as moves: %+v", st)
	}
}

func TestStepTowardIsBoundedAndConvergent(t *testing.T) {
	cur := core.Tunables{SizeRatio: 10, K: 9, Z: 9}
	target := cost.Design{T: 4, K: 1, Z: 1}
	steps := 0
	for {
		next := stepToward(cur, target)
		if next == cur {
			break
		}
		if d := next.SizeRatio - cur.SizeRatio; d < -1 || d > 1 {
			t.Fatalf("T stepped by %d", d)
		}
		if next.K > cur.SizeRatio-1 && next.K > 1 {
			// K must respect its own new T bound.
			if next.K > next.SizeRatio-1 {
				t.Fatalf("K %d exceeds T-1 bound (T=%d)", next.K, next.SizeRatio)
			}
		}
		cur = next
		if steps++; steps > 50 {
			t.Fatalf("stepToward did not converge: at %+v", cur)
		}
	}
	if cur.SizeRatio != 4 || cur.K != 1 || cur.Z != 1 {
		t.Fatalf("converged to %+v, want T=4 K=1 Z=1", cur)
	}
}

func TestHalfStep(t *testing.T) {
	cases := []struct{ cur, target, want int }{
		{9, 1, 5}, {5, 1, 3}, {3, 1, 2}, {2, 1, 1}, {1, 1, 1},
		{1, 9, 5}, {5, 9, 7}, {8, 9, 9},
	}
	for _, c := range cases {
		if got := halfStep(c.cur, c.target); got != c.want {
			t.Errorf("halfStep(%d, %d) = %d, want %d", c.cur, c.target, got, c.want)
		}
	}
}

func TestDiffTunables(t *testing.T) {
	a := core.Tunables{SizeRatio: 10, K: 1, Z: 1, FilterBitsPerKey: 10}
	if got := a.Describe(&a); got != "" {
		t.Fatalf("diff of equal tunables = %q", got)
	}
	b := a
	b.SizeRatio = 8
	b.FilterBitsPerKey = 12
	if got := b.Describe(&a); got != "T 10->8 bits/key 10->12" {
		t.Fatalf("diff = %q", got)
	}
}

// TestEveryLiveKnobRendersInBothEvents: for every live row of core.Knobs,
// a move of that knob alone is named in the engine's retune event and in
// the tuner's tune event. Both render through Tunables.Describe over the
// rows; when each kept its own list, the tune event could not show every
// knob the retune event did.
func TestEveryLiveKnobRendersInBothEvents(t *testing.T) {
	eng, err := core.Open(core.Options{Dir: "d", FS: vfs.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	tn := New(eng, fastConfig())
	for i := range core.Knobs {
		k := &core.Knobs[i]
		if k.Live == nil {
			continue
		}
		cur := eng.Tunables()
		next := cur
		if v := reflect.ValueOf(k.Live(&next)).Elem(); v.CanFloat() {
			v.SetFloat(v.Float() + 1)
		} else {
			v.SetInt(v.Int() + 1)
		}
		tn.mu.Lock()
		tn.apply(time.Now(), Signals{}, cur, next, "test")
		tn.mu.Unlock()
		named := map[iostat.EventType]bool{}
		for _, e := range eng.Events() {
			delta := e.Detail
			if e.Type == iostat.EventTune {
				delta = strings.Split(delta, " | ")[1]
			}
			named[e.Type] = slices.Contains(strings.Fields(delta), k.Name)
		}
		if !named[iostat.EventRetune] || !named[iostat.EventTune] {
			t.Errorf("moving %s alone: named in the retune event %v, in the tune event %v", k.Name, named[iostat.EventRetune], named[iostat.EventTune])
		}
	}
}

// TestStatusJSONGolden: tuner status serializes to the bytes it did while
// Tunables was declared apart from the rows (the STATS opcode's JSON).
func TestStatusJSONGolden(t *testing.T) {
	b, err := json.Marshal(Status{Shard: 1, Running: true, Interval: "10s", Cooldown: "30s", Current: core.Tunables{
		SizeRatio: 10, K: 1, Z: 1, FilterBitsPerKey: 10, L0CompactionTrigger: 4, L0SlowdownTrigger: 12, L0StopTrigger: 24,
		SlowdownMaxDelay: time.Millisecond, PendingCompactionSlowdownBytes: 64 << 20,
	}})
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"shard":1,"running":true,"frozen":false,"interval":"10s","cooldown":"30s","samples":0,"moves":0,` +
		`"current":{"SizeRatio":10,"K":1,"Z":1,"FilterBitsPerKey":10,"L0CompactionTrigger":4,"L0SlowdownTrigger":12,` +
		`"L0StopTrigger":24,"SlowdownMaxDelay":1000000,"PendingCompactionSlowdownBytes":67108864},` +
		`"last_signals":{"ops":0,"raw_read_frac":0,"read_frac":0,"range_frac":0,"write_amp":0,"filter_fpr":0,` +
		`"cache_hit_rate":0,"stall_ns":0,"slowdown_ns":0}}`
	if string(b) != want {
		t.Fatalf("status JSON\n got %s\nwant %s", b, want)
	}
}
