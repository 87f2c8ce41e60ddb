// Package manifest persists the tree's structural state — which table
// files exist, how they are organized into levels and sorted runs, and the
// engine's sequence/file-number watermarks — so the version a scan sees is
// exactly the set of files that were live when it began, across restarts.
//
// Persistence is a whole-state snapshot written atomically (temp file +
// rename) on every structural change. At this engine's file counts the
// snapshot is small; the simplicity buys crash-safety without edit-log
// replay machinery.
package manifest

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"lsmkv/internal/vfs"
)

// FileMeta describes one immutable table file.
type FileMeta struct {
	// Num is the file number; the file lives at <dir>/<Num>.sst.
	Num uint64 `json:"num"`
	// Size is the file length in bytes.
	Size uint64 `json:"size"`
	// Smallest and Largest bound the user keys in the file (inclusive).
	Smallest []byte `json:"smallest"`
	Largest  []byte `json:"largest"`
	// SmallestSeq and LargestSeq bound the sequence numbers.
	SmallestSeq uint64 `json:"smallest_seq"`
	LargestSeq  uint64 `json:"largest_seq"`
	// Entries and Tombstones count the file's payload.
	Entries    uint64 `json:"entries"`
	Tombstones uint64 `json:"tombstones"`
	// CreatedAt orders files by creation (monotonic counter, not time).
	CreatedAt uint64 `json:"created_at"`
}

// Run is a sorted run: files ordered by Smallest with disjoint ranges.
type Run struct {
	Files []*FileMeta `json:"files"`
}

// Size returns the run's total bytes.
func (r Run) Size() uint64 {
	var s uint64
	for _, f := range r.Files {
		s += f.Size
	}
	return s
}

// Level holds the runs of one storage level, newest run last for level 0
// flush order and append order elsewhere.
type Level struct {
	Runs []Run `json:"runs"`
}

// Size returns the level's total bytes.
func (l Level) Size() uint64 {
	var s uint64
	for _, r := range l.Runs {
		s += r.Size()
	}
	return s
}

// State is the complete persistent structural state.
type State struct {
	// NextFileNum is the next unused table/WAL file number.
	NextFileNum uint64 `json:"next_file_num"`
	// LastSeq is the highest sequence number assigned before the last
	// persist.
	LastSeq uint64 `json:"last_seq"`
	// Levels is the tree: Levels[0] is the first storage level.
	Levels []Level `json:"levels"`
	// VlogHead, when key-value separation is on, records the active value
	// log segment at persist time (GC never collects it).
	VlogHead uint64 `json:"vlog_head,omitempty"`
}

// Clone deep-copies the state (FileMeta pointers are shared — they are
// immutable once created).
func (s *State) Clone() *State {
	out := &State{NextFileNum: s.NextFileNum, LastSeq: s.LastSeq, VlogHead: s.VlogHead}
	out.Levels = make([]Level, len(s.Levels))
	for i, l := range s.Levels {
		out.Levels[i].Runs = make([]Run, len(l.Runs))
		for j, r := range l.Runs {
			out.Levels[i].Runs[j].Files = append([]*FileMeta(nil), r.Files...)
		}
	}
	return out
}

// FileNums returns the set of live table file numbers.
func (s *State) FileNums() map[uint64]bool {
	out := map[uint64]bool{}
	for _, l := range s.Levels {
		for _, r := range l.Runs {
			for _, f := range r.Files {
				out[f.Num] = true
			}
		}
	}
	return out
}

const manifestName = "MANIFEST"

// Path returns the manifest location under dir.
func Path(dir string) string { return filepath.Join(dir, manifestName) }

// Save writes the state atomically under dir (vfs.WriteFileAtomic: temp
// file, fsync, rename).
func Save(fs vfs.FS, dir string, s *State) error {
	data, err := json.Marshal(s)
	if err != nil {
		return fmt.Errorf("manifest: encode: %w", err)
	}
	return vfs.WriteFileAtomic(fs, Path(dir), data)
}

// Load reads the state from dir. A missing manifest yields an empty state
// (fresh database), not an error.
func Load(fs vfs.FS, dir string) (*State, error) {
	data, err := vfs.ReadFile(fs, Path(dir))
	if err != nil {
		if os.IsNotExist(err) {
			return &State{NextFileNum: 1}, nil
		}
		return nil, err
	}
	var s State
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("manifest: decode: %w", err)
	}
	if s.NextFileNum == 0 {
		s.NextFileNum = 1
	}
	return &s, nil
}
