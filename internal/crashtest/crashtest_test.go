package crashtest

import (
	"errors"
	"fmt"
	"testing"

	"lsmkv/internal/vfs"
)

// TestCrashCheckerRejectsGarbage pins the checkers themselves: a state
// that is not a prefix of history, or that lost an acknowledged write,
// must be rejected, and every state the history allows accepted.
func TestCrashCheckerRejectsGarbage(t *testing.T) {
	h := &History{}
	for _, w := range []Write{Put("k00", "a0"), Put("k01", "b1"), Put("k00", "a2"), Del("k01")} {
		h.Issue(w)
	}
	prefix := func(got map[string]string, acked int) error {
		for j := range h.entries {
			h.entries[j].acked = j < acked
		}
		return h.Prefix(got)
	}
	for _, c := range []struct {
		what  string
		got   map[string]string
		acked int
		ok    bool
	}{
		{"full state", map[string]string{"k00": "a2"}, 4, true},
		{"prefix 2", map[string]string{"k00": "a0", "k01": "b1"}, 0, true},
		{"prefix 3", map[string]string{"k00": "a2", "k01": "b1"}, 0, true},
		{"prefix 2 with all four acknowledged", map[string]string{"k00": "a0", "k01": "b1"}, 4, false},
		{"torn value", map[string]string{"k00": "a"}, 0, false},
		{"phantom key", map[string]string{"zz": "boo"}, 0, false},
		{"k00 at entry 0 with k01 deleted by entry 3", map[string]string{"k00": "a0"}, 0, true}, // prefix 1
		{"k00 at entry 2 with k01 never written", map[string]string{"k00": "a2"}, 0, true},      // prefix 4
		{"k00 at entry 0 with a value k01 never had", map[string]string{"k00": "a0", "k01": "bx"}, 0, false},
	} {
		if err := prefix(c.got, c.acked); (err == nil) != c.ok {
			t.Errorf("Prefix, %s: %v", c.what, err)
		}
	}

	// A batch's part on one partition is one entry: applied whole or not.
	h = &History{parts: func(k string) int { return int(k[0] - 'a') }}
	h.Ack(h.Issue(Put("a1", "x"), Put("b1", "x"), Put("a2", "x")))
	h.Issue(Put("a1", "y"), Put("b1", "y"), Put("a2", "y"))
	for _, c := range []struct {
		what string
		got  map[string]string
		ok   bool
	}{
		{"first batch", map[string]string{"a1": "x", "b1": "x", "a2": "x"}, true},
		{"second batch on one partition only", map[string]string{"a1": "y", "b1": "x", "a2": "y"}, true},
		{"half the second batch on a partition", map[string]string{"a1": "y", "b1": "y", "a2": "x"}, false},
		{"the acknowledged batch lost on a partition", map[string]string{"a1": "x", "a2": "x"}, false},
	} {
		if err := h.Prefix(c.got); (err == nil) != c.ok {
			t.Errorf("Prefix, %s: %v", c.what, err)
		}
	}

	// Window: per key, a write from the last acknowledged one on.
	h = &History{}
	h.Ack(h.Issue(Put("k", "v1")))
	h.Ack(h.Issue(Put("k", "v2")))
	h.Issue(Put("k", "v3"))
	h.Issue(Put("j", "w1"))
	for _, c := range []struct {
		what string
		got  map[string]string
		ok   bool
	}{
		{"last acknowledged", map[string]string{"k": "v2"}, true},
		{"issued after it", map[string]string{"k": "v3", "j": "w1"}, true},
		{"rolled back", map[string]string{"k": "v1"}, false},
		{"lost", map[string]string{"j": "w1"}, false},
		{"garbage", map[string]string{"k": "v"}, false},
		{"phantom", map[string]string{"k": "v2", "zz": "boo"}, false},
	} {
		if err := h.Window(c.got); (err == nil) != c.ok {
			t.Errorf("Window, %s: %v", c.what, err)
		}
	}
}

// TestEmptyCrashWindowFails: a workload that does less in its crash
// window than the case demands (a flush or a collection that became a
// no-op) fails the iteration rather than crashing nothing and passing.
func TestEmptyCrashWindowFails(t *testing.T) {
	for _, c := range []struct {
		what   string
		mkdirs int
		min    int64
		ok     bool
	}{
		{"no op in the window", 0, 0, false},
		{"one op in the window", 1, 0, false},
		{"fewer ops than MinWindow", 5, 10, false},
		{"enough ops", 5, 0, true},
	} {
		err := Run(Case{MinWindow: c.min,
			Run: func(e *Env) {
				e.FS.MkdirAll("before")
				e.WindowStart()
				for i := range c.mkdirs {
					if e.FS.MkdirAll(fmt.Sprintf("d%d", i)) != nil {
						return
					}
				}
				e.WindowEnd()
				e.FS.MkdirAll("after")
			},
			Reopen: func(img vfs.FS) (Store, error) { return emptyStore{}, nil },
		}, 0)
		if got := err == nil; got != c.ok {
			t.Errorf("%s: Run = %v, want ok %v", c.what, err, c.ok)
		}
	}
}

// emptyStore is a store that holds nothing.
type emptyStore struct{}

func (emptyStore) Get([]byte) ([]byte, error) { return nil, errNotFound }
func (emptyStore) Scan(_, _ []byte, _ func(k, v []byte) bool) error {
	return nil
}
func (emptyStore) Close() error { return nil }

var errNotFound = errors.New("not found")
