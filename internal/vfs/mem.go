package vfs

import (
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// ErrCrashed is returned by every operation on a Mem filesystem after
// Crash: the simulated machine is off.
var ErrCrashed = errors.New("vfs: filesystem crashed")

// Mem is an in-memory filesystem that models durability the way a real
// disk does: written data is volatile until the file is synced, while
// metadata operations (create, remove, rename) are atomic and immediately
// durable. That model captures the fsync-ordering bugs crash tests hunt
// (a renamed-in file whose content was never synced comes back empty)
// without requiring directory-fsync plumbing the engine does not have.
//
// Crash freezes the filesystem; CrashImage then materializes what a disk
// would hold after power loss: every file truncated to its synced
// watermark, optionally keeping a random prefix of the unsynced tail
// (torn writes).
type Mem struct {
	mu      sync.Mutex
	nodes   map[string]*memNode
	dirs    map[string]bool
	crashed bool
}

// memNode is one file's content. data is the live content; the durable
// content is syncedCopy when an overwrite dirtied the synced prefix,
// otherwise data[:syncedLen].
type memNode struct {
	data       []byte
	syncedLen  int
	syncedCopy []byte
}

func (n *memNode) durable() []byte {
	if n.syncedCopy != nil {
		return append([]byte(nil), n.syncedCopy...)
	}
	return append([]byte(nil), n.data[:n.syncedLen]...)
}

// NewMem returns an empty in-memory filesystem.
func NewMem() *Mem {
	return &Mem{nodes: make(map[string]*memNode), dirs: map[string]bool{".": true, "/": true}}
}

func clean(name string) string { return filepath.Clean(name) }

// Crash freezes the filesystem: every subsequent operation fails with
// ErrCrashed and no state changes. Safe to call concurrently with
// in-flight operations; each operation is atomic with respect to the
// crash.
func (m *Mem) Crash() {
	m.mu.Lock()
	m.crashed = true
	m.mu.Unlock()
}

// Crashed reports whether Crash has been called.
func (m *Mem) Crashed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crashed
}

// CrashImage returns a new Mem holding what a disk would contain after
// power loss at this instant: per file, the synced content; when rng is
// non-nil, additionally a random prefix of the unsynced tail (simulating
// torn/partial writes that reached the platter). Directory structure is
// preserved. The receiver is usually frozen by Crash first, but the image
// can be taken at any time.
func (m *Mem) CrashImage(rng *rand.Rand) *Mem {
	m.mu.Lock()
	defer m.mu.Unlock()
	img := NewMem()
	for d := range m.dirs {
		img.dirs[d] = true
	}
	for name, n := range m.nodes {
		data := n.durable()
		if rng != nil && n.syncedCopy == nil && len(n.data) > n.syncedLen {
			tail := n.data[n.syncedLen:]
			data = append(data, tail[:rng.Intn(len(tail)+1)]...)
		}
		img.nodes[name] = &memNode{data: data, syncedLen: len(data)}
	}
	return img
}

func (m *Mem) checkParent(name string) error {
	dir := filepath.Dir(name)
	if !m.dirs[dir] {
		return &os.PathError{Op: "create", Path: name, Err: os.ErrNotExist}
	}
	return nil
}

func (m *Mem) Create(name string) (File, error) {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	if err := m.checkParent(name); err != nil {
		return nil, err
	}
	n := &memNode{}
	m.nodes[name] = n
	return &memFile{fs: m, node: n, name: name, writable: true}, nil
}

func (m *Mem) open(name string, writable bool) (File, error) {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	n, ok := m.nodes[name]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	return &memFile{fs: m, node: n, name: name, writable: writable}, nil
}

func (m *Mem) Open(name string) (File, error) { return m.open(name, false) }

func (m *Mem) OpenReadWrite(name string) (File, error) { return m.open(name, true) }

func (m *Mem) Remove(name string) error {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	if _, ok := m.nodes[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(m.nodes, name)
	return nil
}

func (m *Mem) Rename(oldname, newname string) error {
	oldname, newname = clean(oldname), clean(newname)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	n, ok := m.nodes[oldname]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldname, Err: os.ErrNotExist}
	}
	delete(m.nodes, oldname)
	m.nodes[newname] = n
	return nil
}

func (m *Mem) MkdirAll(dir string) error {
	dir = clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	for d := dir; ; d = filepath.Dir(d) {
		m.dirs[d] = true
		if d == filepath.Dir(d) {
			break
		}
	}
	return nil
}

func (m *Mem) List(dir string) ([]string, error) {
	dir = clean(dir)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	if !m.dirs[dir] {
		return nil, &os.PathError{Op: "open", Path: dir, Err: os.ErrNotExist}
	}
	seen := map[string]bool{}
	var names []string
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	for name := range m.nodes {
		if filepath.Dir(name) == dir {
			add(filepath.Base(name))
		}
	}
	for d := range m.dirs {
		if d != dir && filepath.Dir(d) == dir {
			add(filepath.Base(d))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *Mem) Stat(name string) (os.FileInfo, error) {
	name = clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	if n, ok := m.nodes[name]; ok {
		return memFileInfo{name: filepath.Base(name), size: int64(len(n.data))}, nil
	}
	if m.dirs[name] {
		return memFileInfo{name: filepath.Base(name), dir: true}, nil
	}
	return nil, &os.PathError{Op: "stat", Path: name, Err: os.ErrNotExist}
}

// memFile is one open handle onto a memNode.
type memFile struct {
	fs       *Mem
	node     *memNode
	name     string
	readOff  int64
	writable bool
	closed   bool
}

func (f *memFile) Read(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed {
		return 0, ErrCrashed
	}
	if f.readOff >= int64(len(f.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[f.readOff:])
	f.readOff += int64(n)
	return n, nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed {
		return 0, ErrCrashed
	}
	if off >= int64(len(f.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.node.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed {
		return 0, ErrCrashed
	}
	if !f.writable {
		return 0, &os.PathError{Op: "write", Path: f.name, Err: os.ErrPermission}
	}
	f.node.data = append(f.node.data, p...)
	return len(p), nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed {
		return 0, ErrCrashed
	}
	if !f.writable {
		return 0, &os.PathError{Op: "write", Path: f.name, Err: os.ErrPermission}
	}
	n := f.node
	// Overwriting already-durable bytes invalidates the watermark model;
	// snapshot the durable prefix first so CrashImage stays correct.
	if off < int64(n.syncedLen) && n.syncedCopy == nil {
		n.syncedCopy = append([]byte(nil), n.data[:n.syncedLen]...)
	}
	if end := off + int64(len(p)); end > int64(len(n.data)) {
		// Grown by append, so a file written at its end (the value log)
		// costs amortized time per byte, not a whole-file copy per write.
		n.data = append(n.data, make([]byte, end-int64(len(n.data)))...)
	}
	copy(n.data[off:], p)
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed {
		return ErrCrashed
	}
	f.node.syncedLen = len(f.node.data)
	f.node.syncedCopy = nil
	return nil
}

// Close never fails, even post-crash: handle teardown is a process-local
// action, and shutdown paths must be able to run against a frozen FS.
func (f *memFile) Close() error {
	f.closed = true
	return nil
}

func (f *memFile) Stat() (os.FileInfo, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if f.fs.crashed {
		return nil, ErrCrashed
	}
	return memFileInfo{name: filepath.Base(f.name), size: int64(len(f.node.data))}, nil
}

// memFileInfo implements os.FileInfo for in-memory files.
type memFileInfo struct {
	name string
	size int64
	dir  bool
}

func (fi memFileInfo) Name() string { return fi.name }
func (fi memFileInfo) Size() int64  { return fi.size }
func (fi memFileInfo) Mode() os.FileMode {
	if fi.dir {
		return os.ModeDir | 0o755
	}
	return 0o644
}
func (fi memFileInfo) ModTime() time.Time { return time.Time{} }
func (fi memFileInfo) IsDir() bool        { return fi.dir }
func (fi memFileInfo) Sys() any           { return nil }
