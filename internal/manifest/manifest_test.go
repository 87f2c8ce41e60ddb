package manifest

import (
	"os"
	"testing"

	"lsmkv/internal/vfs"
)

func sampleState() *State {
	return &State{
		NextFileNum: 42,
		LastSeq:     1000,
		VlogHead:    3,
		Levels: []Level{
			{Runs: []Run{
				{Files: []*FileMeta{{Num: 1, Size: 100, Smallest: []byte("a"), Largest: []byte("m"), Entries: 10, CreatedAt: 1}}},
				{Files: []*FileMeta{{Num: 2, Size: 200, Smallest: []byte("b"), Largest: []byte("z"), Entries: 20, CreatedAt: 2}}},
			}},
			{Runs: []Run{
				{Files: []*FileMeta{
					{Num: 3, Size: 300, Smallest: []byte("a"), Largest: []byte("h"), CreatedAt: 3},
					{Num: 4, Size: 400, Smallest: []byte("i"), Largest: []byte("z"), Tombstones: 5, CreatedAt: 4},
				}},
			}},
		},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := sampleState()
	if err := Save(vfs.Default, dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(vfs.Default, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.NextFileNum != 42 || got.LastSeq != 1000 || got.VlogHead != 3 {
		t.Errorf("scalars mismatch: %+v", got)
	}
	if n := len(got.FileNums()); n != 4 {
		t.Errorf("%d live files, want 4", n)
	}
	if len(got.Levels) != 2 || len(got.Levels[0].Runs) != 2 {
		t.Errorf("structure mismatch: %+v", got.Levels)
	}
	f := got.Levels[1].Runs[0].Files[1]
	if f.Num != 4 || string(f.Largest) != "z" || f.Tombstones != 5 {
		t.Errorf("file meta mismatch: %+v", f)
	}
}

func TestLoadMissingIsFresh(t *testing.T) {
	s, err := Load(vfs.Default, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if s.NextFileNum != 1 || len(s.FileNums()) != 0 {
		t.Errorf("fresh state wrong: %+v", s)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(Path(dir), []byte("{not json"), 0o644)
	if _, err := Load(vfs.Default, dir); err == nil {
		t.Error("garbage manifest must fail to load")
	}
}

func TestSaveIsAtomicOverwrite(t *testing.T) {
	dir := t.TempDir()
	Save(vfs.Default, dir, sampleState())
	s2 := sampleState()
	s2.NextFileNum = 99
	if err := Save(vfs.Default, dir, s2); err != nil {
		t.Fatal(err)
	}
	got, _ := Load(vfs.Default, dir)
	if got.NextFileNum != 99 {
		t.Errorf("overwrite lost: %d", got.NextFileNum)
	}
	// No temp file left behind.
	if _, err := os.Stat(Path(dir) + ".tmp"); !os.IsNotExist(err) {
		t.Error("temp file left behind")
	}
}

func TestCloneIsolation(t *testing.T) {
	s := sampleState()
	c := s.Clone()
	c.Levels[0].Runs = c.Levels[0].Runs[:1]
	c.NextFileNum = 7
	if len(s.Levels[0].Runs) != 2 || s.NextFileNum != 42 {
		t.Error("Clone shares mutable structure with original")
	}
}

func TestFileNums(t *testing.T) {
	nums := sampleState().FileNums()
	for _, n := range []uint64{1, 2, 3, 4} {
		if !nums[n] {
			t.Errorf("missing file %d", n)
		}
	}
	if len(nums) != 4 {
		t.Errorf("extra files: %v", nums)
	}
}
