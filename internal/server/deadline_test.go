package server

import (
	"testing"
	"time"
)

// TestLazyDeadlineRearm: a connection deadline is set on first use, left
// in force while it was set at most timeout/16 ago, and set again once it
// is older than that — also when it has passed in the meantime.
func TestLazyDeadlineRearm(t *testing.T) {
	const timeout = 16 * time.Second
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	d := lazyDeadline{timeout: timeout}
	for _, step := range []struct {
		name  string
		now   time.Time
		rearm bool
		armed time.Time // the arming time in force after the step
	}{
		{"fresh", t0, true, t0},
		{"at once", t0, false, t0},
		{"within 1/16", t0.Add(timeout / 32), false, t0},
		{"at 1/16", t0.Add(timeout / 16), false, t0},
		{"stale", t0.Add(timeout/16 + 1), true, t0.Add(timeout/16 + 1)},
		{"within 1/16 of the re-arm", t0.Add(timeout/8 + 1), false, t0.Add(timeout/16 + 1)},
		{"already past", t0.Add(2 * timeout), true, t0.Add(2 * timeout)},
	} {
		at, ok := d.rearm(step.now)
		if ok != step.rearm || d.armed != step.armed {
			t.Fatalf("%s: rearm = %v with armed %v, want %v with armed %v", step.name, ok, d.armed, step.rearm, step.armed)
		}
		if ok && !at.Equal(step.now.Add(timeout)) {
			t.Fatalf("%s: deadline %v, want %v", step.name, at, step.now.Add(timeout))
		}
		if left := d.armed.Add(timeout).Sub(step.now); left < timeout*15/16 {
			t.Fatalf("%s: %v of the deadline left, want at least 15/16 of %v", step.name, left, timeout)
		}
	}
}
