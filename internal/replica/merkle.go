package replica

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
)

// Merkle verification works over the logical keyspace rather than file
// sets: primary and follower hold identical key/value content at equal
// sequence numbers, but their physical layouts differ (independent
// flush/compaction timing, vlog separation on one side only). Keys hash
// into a fixed number of buckets; each bucket accumulates a running
// SHA-256 chain over its entries in global key order; bucket digests
// fold pairwise into a root. Equal roots at equal seqs mean identical
// logical content; on mismatch the differing buckets localize the
// divergence to ~1/buckets of the keyspace.

// DefaultMerkleBuckets is the bucket count used when a request does not
// specify one.
const DefaultMerkleBuckets = 256

// MaxMerkleBuckets bounds a requested bucket count: a tree costs 32
// bytes of digest and 64 of hex per bucket, and the count arrives
// unchecked from the wire (MERKLE) or an embedded caller.
const MaxMerkleBuckets = 1 << 16

// Tree is a Merkle summary of a snapshot's logical content.
type Tree struct {
	// Seqs is the per-shard snapshot vector the scan was pinned at;
	// comparing trees is only meaningful at equal vectors.
	Seqs    []uint64 `json:"seqs"`
	Buckets int      `json:"buckets"`
	Entries int64    `json:"entries"`
	Root    string   `json:"root"`
	// Leaves are the per-bucket digests (hex), for localizing a
	// mismatch.
	Leaves []string `json:"leaves"`
}

// BuildTree hashes every entry the scan yields. scan must iterate
// key/value pairs in ascending key order (any consistent order works as
// long as both sides share it) and propagate fn's return as a
// keep-going flag.
func BuildTree(buckets int, seqs []uint64, scan func(fn func(key, value []byte) bool) error) (*Tree, error) {
	if buckets <= 0 {
		buckets = DefaultMerkleBuckets
	}
	if buckets > MaxMerkleBuckets {
		return nil, fmt.Errorf("replica: %d merkle buckets exceed the limit of %d", buckets, MaxMerkleBuckets)
	}
	chains := make([][sha256.Size]byte, buckets)
	entries := int64(0)
	err := scan(func(key, value []byte) bool {
		h := fnv.New64a()
		h.Write(key)
		b := int(h.Sum64() % uint64(buckets))
		// Chain: digest = SHA-256(prev digest | klen | key | vlen | value).
		hh := sha256.New()
		hh.Write(chains[b][:])
		var lens [8]byte
		binary.LittleEndian.PutUint32(lens[0:4], uint32(len(key)))
		binary.LittleEndian.PutUint32(lens[4:8], uint32(len(value)))
		hh.Write(lens[:])
		hh.Write(key)
		hh.Write(value)
		copy(chains[b][:], hh.Sum(nil))
		entries++
		return true
	})
	if err != nil {
		return nil, err
	}

	t := &Tree{
		Seqs:    append([]uint64(nil), seqs...),
		Buckets: buckets,
		Entries: entries,
		Leaves:  make([]string, buckets),
	}
	level := make([][sha256.Size]byte, buckets)
	for i, c := range chains {
		t.Leaves[i] = hex.EncodeToString(c[:])
		level[i] = c
	}
	// Fold pairwise to the root; odd nodes promote unchanged.
	for len(level) > 1 {
		next := make([][sha256.Size]byte, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 == len(level) {
				next = append(next, level[i])
				continue
			}
			h := sha256.New()
			h.Write(level[i][:])
			h.Write(level[i+1][:])
			var d [sha256.Size]byte
			copy(d[:], h.Sum(nil))
			next = append(next, d)
		}
		level = next
	}
	t.Root = hex.EncodeToString(level[0][:])
	return t, nil
}

// DiffBuckets returns the bucket indexes whose digests differ between
// two trees built with equal bucket counts.
func DiffBuckets(a, b *Tree) ([]int, error) {
	if a.Buckets != b.Buckets {
		return nil, fmt.Errorf("replica: bucket counts differ (%d vs %d)", a.Buckets, b.Buckets)
	}
	var diff []int
	for i := range a.Leaves {
		if a.Leaves[i] != b.Leaves[i] {
			diff = append(diff, i)
		}
	}
	return diff, nil
}
