package core

import (
	"bytes"

	"lsmkv/internal/kv"
)

// mergingIter merges multiple internal-key-ordered iterators into one,
// the standard k-way merge behind scans, flushes and compactions. items
// is a binary min-heap of the inputs that still hold an entry, ordered by
// user key ascending, then trailer descending (newest version first),
// then input ordinal; ties cannot occur across well-formed inputs
// (internal keys are unique), but the ordinal breaks them defensively
// (younger source first). Each item caches its input's parsed key,
// refreshed only when that input moves, so a comparison re-parses
// nothing, and the heap is sifted by hand over the concrete slice: no
// comparison or swap goes through an interface.
type mergingIter struct {
	items  []mergeItem
	inputs []kv.Iterator
	err    error
}

type mergeItem struct {
	it  kv.Iterator
	key kv.InternalKey // it.Key(), valid until it moves
	ord int
}

// less is the merge order.
func (a *mergeItem) less(b *mergeItem) bool {
	if c := bytes.Compare(a.key.UserKey, b.key.UserKey); c != 0 {
		return c < 0
	}
	if at, bt := a.key.Trailer(), b.key.Trailer(); at != bt {
		return at > bt
	}
	return a.ord < b.ord
}

// newMergingIter combines inputs; ordinal 0 is the youngest source.
func newMergingIter(inputs []kv.Iterator) *mergingIter {
	return &mergingIter{inputs: inputs, items: make([]mergeItem, 0, len(inputs))}
}

var _ kv.Iterator = (*mergingIter)(nil)

// down restores the heap below item i after its key grew: the item sinks
// past every smaller child, which move up into the hole it leaves.
func (m *mergingIter) down(i int) {
	h := m.items
	n := len(h)
	x := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].less(&h[c]) {
			c = r
		}
		if !h[c].less(&x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

func (m *mergingIter) reset(position func(kv.Iterator) bool) bool {
	clear(m.items)
	m.items = m.items[:0]
	for ord, it := range m.inputs {
		if position(it) {
			m.items = append(m.items, mergeItem{it: it, key: it.Key(), ord: ord})
		} else if err := it.Error(); err != nil {
			m.err = err
			return false
		}
	}
	for i := len(m.items)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	return len(m.items) > 0
}

func (m *mergingIter) First() bool {
	return m.reset(func(it kv.Iterator) bool { return it.First() })
}

func (m *mergingIter) SeekGE(target kv.InternalKey) bool {
	return m.reset(func(it kv.Iterator) bool { return it.SeekGE(target) })
}

func (m *mergingIter) Next() bool {
	n := len(m.items)
	if n == 0 {
		return false
	}
	top := &m.items[0]
	if top.it.Next() {
		top.key = top.it.Key()
	} else {
		if err := top.it.Error(); err != nil {
			m.err = err
			return false
		}
		// The input is exhausted: the last item takes its place, and the
		// vacated slot drops its references.
		m.items[0] = m.items[n-1]
		m.items[n-1] = mergeItem{}
		m.items = m.items[:n-1]
		if n == 1 {
			return false
		}
	}
	m.down(0)
	return true
}

func (m *mergingIter) Valid() bool { return len(m.items) > 0 }

func (m *mergingIter) Key() kv.InternalKey { return m.items[0].key }

func (m *mergingIter) Value() []byte { return m.items[0].it.Value() }

func (m *mergingIter) Error() error { return m.err }

// Close closes every input once; a second Close closes nothing again.
func (m *mergingIter) Close() error {
	var first error
	for _, it := range m.inputs {
		if err := it.Close(); err != nil && first == nil {
			first = err
		}
	}
	if m.err != nil && first == nil {
		first = m.err
	}
	m.items, m.inputs = nil, nil
	return first
}

// runIter iterates one sorted run spanning multiple table files: tables,
// a stretch of the run, opened one at a time.
type runIter struct {
	tables []*tableHandle
	idx    int
	it     kv.Iterator
	err    error
}

var _ kv.Iterator = (*runIter)(nil)

func (ri *runIter) open(idx int) bool {
	if ri.it != nil {
		ri.it.Close()
		ri.it = nil
	}
	if idx < 0 || idx >= len(ri.tables) {
		return false
	}
	ri.idx = idx
	ri.it = ri.tables[idx].reader.NewIterator()
	return true
}

func (ri *runIter) First() bool {
	if !ri.open(0) {
		return false
	}
	if ri.it.First() {
		return true
	}
	return ri.advance()
}

func (ri *runIter) advance() bool {
	for {
		if ri.it != nil {
			if err := ri.it.Error(); err != nil {
				ri.err = err
				return false
			}
		}
		if !ri.open(ri.idx + 1) {
			return false
		}
		if ri.it.First() {
			return true
		}
	}
}

func (ri *runIter) SeekGE(target kv.InternalKey) bool {
	// Locate the first table whose largest key might reach the target's
	// user key; versions of one user key never span tables within a run.
	i := 0
	for ; i < len(ri.tables); i++ {
		if string(ri.tables[i].meta.Largest) >= string(target.UserKey) {
			break
		}
	}
	if !ri.open(i) {
		return false
	}
	if ri.it.SeekGE(target) {
		return true
	}
	return ri.advance()
}

func (ri *runIter) Next() bool {
	if ri.it == nil {
		return false
	}
	if ri.it.Next() {
		return true
	}
	return ri.advance()
}

func (ri *runIter) Valid() bool { return ri.it != nil && ri.it.Valid() }

func (ri *runIter) Key() kv.InternalKey { return ri.it.Key() }

func (ri *runIter) Value() []byte { return ri.it.Value() }

func (ri *runIter) Error() error {
	if ri.err != nil {
		return ri.err
	}
	if ri.it != nil {
		return ri.it.Error()
	}
	return nil
}

func (ri *runIter) Close() error {
	if ri.it != nil {
		ri.it.Close()
		ri.it = nil
	}
	return ri.err
}
