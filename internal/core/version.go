package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"lsmkv/internal/compaction"
	"lsmkv/internal/manifest"
	"lsmkv/internal/sstable"
	"lsmkv/internal/vfs"
)

// tableHandle wraps one immutable table file with its opened reader and a
// reference count. A table is deletable once it is obsolete (dropped from
// the latest version) and no live version references it.
type tableHandle struct {
	meta     *manifest.FileMeta
	file     vfs.File
	reader   *sstable.Reader
	refs     atomic.Int32
	obsolete atomic.Bool
	db       *DB
}

func (th *tableHandle) ref() { th.refs.Add(1) }

func (th *tableHandle) unref() {
	if th.refs.Add(-1) == 0 && th.obsolete.Load() {
		th.dispose()
	}
}

func (th *tableHandle) markObsolete() {
	th.obsolete.Store(true)
	if th.refs.Load() == 0 {
		th.dispose()
	}
}

func (th *tableHandle) dispose() {
	th.file.Close()
	if th.db.cache != nil {
		th.db.cache.EvictFile(th.meta.Num)
	}
	th.db.opts.FS.Remove(th.db.tablePath(th.meta.Num))
}

// run is an opened sorted run: table handles ordered by smallest key with
// disjoint ranges.
type run struct {
	tables []*tableHandle
}

// find returns the table that may contain userKey, or nil.
func (r *run) find(userKey []byte) *tableHandle {
	i := sort.Search(len(r.tables), func(i int) bool {
		return bytes.Compare(r.tables[i].meta.Smallest, userKey) > 0
	}) - 1
	if i < 0 {
		return nil
	}
	t := r.tables[i]
	if bytes.Compare(userKey, t.meta.Largest) > 0 {
		return nil
	}
	return t
}

// overlaps returns the tables intersecting [lo, hi]; nil hi means +inf.
func (r *run) overlaps(lo, hi []byte) []*tableHandle {
	var out []*tableHandle
	for _, t := range r.tables {
		if hi != nil && bytes.Compare(t.meta.Smallest, hi) > 0 {
			break
		}
		if lo != nil && bytes.Compare(t.meta.Largest, lo) < 0 {
			continue
		}
		out = append(out, t)
	}
	return out
}

// version is an immutable snapshot of the tree structure. Read operations
// reference a version for their whole duration so compactions can delete
// files safely underneath.
type version struct {
	levels [][]*run // level -> runs in append (age) order, oldest first
	refs   atomic.Int32
	db     *DB
}

func (v *version) ref() { v.refs.Add(1) }

func (v *version) unref() {
	if v.refs.Add(-1) == 0 {
		for _, level := range v.levels {
			for _, r := range level {
				for _, t := range r.tables {
					t.unref()
				}
			}
		}
	}
}

// view converts the version to planner views.
func (v *version) view() []compaction.LevelView {
	out := make([]compaction.LevelView, len(v.levels))
	for i, level := range v.levels {
		for _, r := range level {
			rv := compaction.RunView{}
			for _, t := range r.tables {
				rv.Files = append(rv.Files, compaction.FileView{
					Num:        t.meta.Num,
					Size:       t.meta.Size,
					Smallest:   t.meta.Smallest,
					Largest:    t.meta.Largest,
					Entries:    t.meta.Entries,
					Tombstones: t.meta.Tombstones,
					Seq:        t.meta.CreatedAt,
				})
			}
			out[i].Runs = append(out[i].Runs, rv)
		}
	}
	return out
}

// tableRegistry tracks every opened table by file number.
type tableRegistry struct {
	mu     sync.Mutex
	tables map[uint64]*tableHandle
}

func newTableRegistry() *tableRegistry {
	return &tableRegistry{tables: make(map[uint64]*tableHandle)}
}

func (reg *tableRegistry) get(num uint64) *tableHandle {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return reg.tables[num]
}

func (reg *tableRegistry) put(th *tableHandle) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	reg.tables[th.meta.Num] = th
}

func (reg *tableRegistry) remove(num uint64) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	delete(reg.tables, num)
}

func (reg *tableRegistry) closeAll() {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	for _, th := range reg.tables {
		th.file.Close()
	}
	reg.tables = map[uint64]*tableHandle{}
}

// tablePath returns the table file path for a file number.
func (db *DB) tablePath(num uint64) string {
	return filepath.Join(db.opts.Dir, fmt.Sprintf("%06d.sst", num))
}

func (db *DB) walPath(num uint64) string {
	return filepath.Join(db.opts.Dir, fmt.Sprintf("%06d.wal", num))
}

// openTable opens (or returns the already-open) handle for meta.
func (db *DB) openTable(meta *manifest.FileMeta) (*tableHandle, error) {
	if th := db.registry.get(meta.Num); th != nil {
		return th, nil
	}
	f, err := db.opts.FS.Open(db.tablePath(meta.Num))
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	reader, err := sstable.OpenReader(f, fi.Size(), sstable.ReaderOptions{
		FileNum:           meta.Num,
		Cache:             db.cacheIface(),
		Stats:             db.opts.Stats,
		UseLearnedIndex:   db.opts.LearnedIndex != sstable.LearnedNone,
		UseBlockHashIndex: db.opts.BlockHashIndex,
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	th := &tableHandle{meta: meta, file: f, reader: reader, db: db}
	db.registry.put(th)
	return th, nil
}

// buildVersion opens every file in state and assembles a version with one
// reference held by the caller.
func (db *DB) buildVersion(state *manifest.State) (*version, error) {
	v := &version{db: db}
	v.levels = make([][]*run, max(len(state.Levels), db.opts.MaxLevels))
	for li, level := range state.Levels {
		for _, r := range level.Runs {
			rr := &run{}
			for _, meta := range r.Files {
				th, err := db.openTable(meta)
				if err != nil {
					return nil, err
				}
				th.ref()
				rr.tables = append(rr.tables, th)
			}
			v.levels[li] = append(v.levels[li], rr)
		}
	}
	v.refs.Store(1)
	return v, nil
}
