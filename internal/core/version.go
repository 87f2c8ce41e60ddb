package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sort"
	"sync/atomic"

	"lsmkv/internal/manifest"
	"lsmkv/internal/sstable"
	"lsmkv/internal/vfs"
)

// tableHandle wraps one immutable table file with its opened reader and a
// reference count. A table is deletable once it is obsolete (dropped from
// the latest version) and no live version references it.
type tableHandle struct {
	meta   *manifest.FileMeta
	file   vfs.File
	reader *sstable.Reader
	// indexBytes is the reader's resident index memory, taken once at
	// open: the reader never changes it.
	indexBytes int
	refs       atomic.Int32
	obsolete   atomic.Bool
	db         *DB
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

// cursor walks one run's tables forward, for keys given in ascending
// order: each seek searches from the table the previous seek stood on,
// so a batch's keys share one pass over the run, and a batch of one costs
// one binary search.
type cursor struct {
	tables []*tableHandle // the table the cursor stands on, and those after it
}

// seek returns the table that may contain userKey, or nil. userKey must
// not be below the key of the previous seek.
func (c *cursor) seek(userKey []byte) *tableHandle {
	i := sort.Search(len(c.tables), func(i int) bool {
		return bytes.Compare(c.tables[i].meta.Smallest, userKey) > 0
	}) - 1
	if i < 0 {
		return nil
	}
	c.tables = c.tables[i:]
	if t := c.tables[0]; bytes.Compare(userKey, t.meta.Largest) <= 0 {
		return t
	}
	return nil
}

// overlaps returns the tables intersecting [lo, hi], nil hi meaning +inf,
// as a subslice of r.tables: the caller must not modify it.
func (r *run) overlaps(lo, hi []byte) []*tableHandle {
	// A run's tables are sorted and disjoint, so the ones that overlap are
	// one stretch of them.
	i := 0
	if lo != nil {
		i = sort.Search(len(r.tables), func(j int) bool { return bytes.Compare(r.tables[j].meta.Largest, lo) >= 0 })
	}
	j := len(r.tables)
	if hi != nil {
		j = i + sort.Search(j-i, func(j int) bool { return bytes.Compare(r.tables[i+j].meta.Smallest, hi) > 0 })
	}
	return r.tables[i:j]
}

// version is an immutable snapshot of the tree structure. Read operations
// reference a version for their whole duration so compactions can delete
// files safely underneath.
type version struct {
	levels [][]*run // level -> runs in append (age) order, oldest first
	// info totals each level (one entry per levels entry) and indexBytes
	// the tables' resident index memory: the one walk that sums the
	// tree, done as the version is built.
	info       []LevelInfo
	indexBytes int
	refs       atomic.Int32
	db         *DB
}

func (v *version) ref() { v.refs.Add(1) }

func (v *version) unref() {
	if v.refs.Add(-1) == 0 {
		v.each((*tableHandle).unref)
	}
}

// each calls fn on every table of v.
func (v *version) each(fn func(*tableHandle)) {
	for _, level := range v.levels {
		for _, r := range level {
			for _, t := range r.tables {
				fn(t)
			}
		}
	}
}

// byNum indexes the version's tables by file number; a nil version has
// none. The version is the one index of open tables: every handle the
// engine holds is listed by the current version or, once obsolete, by an
// older one some read still pins.
func (v *version) byNum() map[uint64]*tableHandle {
	out := map[uint64]*tableHandle{}
	if v != nil {
		v.each(func(t *tableHandle) { out[t.meta.Num] = t })
	}
	return out
}

// closeFiles closes every table file of v: the end of the handles when
// the engine shuts down.
func (v *version) closeFiles() {
	v.each(func(t *tableHandle) { t.file.Close() })
}

// tablePath returns the table file path for a file number.
func (db *DB) tablePath(num uint64) string {
	return filepath.Join(db.opts.Dir, fmt.Sprintf("%06d.sst", num))
}

func (db *DB) walPath(num uint64) string {
	return filepath.Join(db.opts.Dir, fmt.Sprintf("%06d.wal", num))
}

// openTable opens the table file of meta. buildVersion is its only
// caller.
func (db *DB) openTable(meta *manifest.FileMeta) (*tableHandle, error) {
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
		Stats:             db.stats,
		UseLearnedIndex:   db.opts.LearnedIndex != sstable.LearnedNone,
		UseBlockHashIndex: db.opts.BlockHashIndex,
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	return &tableHandle{meta: meta, file: f, reader: reader, indexBytes: reader.ApproxIndexMemory(), db: db}, nil
}

// buildVersion assembles the version of state with one reference held by
// the caller, and totals its levels. It shares every handle prev (nil at
// Open) holds and opens only the files prev does not list; if an open
// fails, it closes the files it opened and leaves prev's handles as they
// were.
func (db *DB) buildVersion(state *manifest.State, prev *version) (*version, error) {
	have := prev.byNum()
	var opened []*tableHandle
	v := &version{db: db}
	v.levels = make([][]*run, max(len(state.Levels), db.opts.MaxLevels))
	v.info = make([]LevelInfo, len(v.levels))
	for li := range v.info {
		v.info[li].Level = li
	}
	for li, level := range state.Levels {
		info := &v.info[li]
		info.Runs = len(level.Runs)
		for _, r := range level.Runs {
			rr := &run{}
			info.Files += len(r.Files)
			for _, meta := range r.Files {
				info.Bytes += meta.Size
				info.Entries += meta.Entries
				info.Tombstones += meta.Tombstones
				th := have[meta.Num]
				if th == nil {
					var err error
					if th, err = db.openTable(meta); err != nil {
						for _, o := range opened {
							o.file.Close()
						}
						return nil, err
					}
					opened = append(opened, th)
				}
				rr.tables = append(rr.tables, th)
				v.indexBytes += th.indexBytes
			}
			v.levels[li] = append(v.levels[li], rr)
		}
	}
	v.each(func(t *tableHandle) { t.ref() })
	v.refs.Store(1)
	return v, nil
}
