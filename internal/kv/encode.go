package kv

import (
	"encoding/binary"
	"math"
)

// AppendLengthPrefixed appends a uvarint length followed by the bytes.
func AppendLengthPrefixed(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// DecodeLengthPrefixed reads a length-prefixed byte string from data,
// returning the string (aliasing data) and the remainder. ok is false when
// data is truncated.
func DecodeLengthPrefixed(data []byte) (b, rest []byte, ok bool) {
	n, w := binary.Uvarint(data)
	if w <= 0 || uint64(len(data)-w) < n {
		return nil, nil, false
	}
	return data[w : w+int(n) : w+int(n)], data[w+int(n):], true
}

// ExpiryLen is the byte length of the expiry prefix a KindSetTTL value
// carries in front of its payload.
const ExpiryLen = 8

// AppendExpiryValue appends the KindSetTTL value encoding — an 8-byte
// little-endian unix-nanosecond expiry timestamp followed by the payload
// — and returns the extended slice.
func AppendExpiryValue(dst []byte, expiryUnixNano int64, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(expiryUnixNano))
	return append(dst, payload...)
}

// ExpiryAfter returns the absolute expiry ttlNanos past nowUnixNano,
// saturating at the largest timestamp — an entry that never expires —
// where the sum would wrap into the past and the write would be
// acknowledged and then read as already expired.
func ExpiryAfter(nowUnixNano, ttlNanos int64) int64 {
	if ttlNanos > 0 && nowUnixNano > math.MaxInt64-ttlNanos {
		return math.MaxInt64
	}
	return nowUnixNano + ttlNanos
}

// SplitExpiryValue decodes a KindSetTTL value into its expiry timestamp
// and payload (aliasing v). ok is false when v is too short to carry the
// expiry prefix.
func SplitExpiryValue(v []byte) (expiryUnixNano int64, payload []byte, ok bool) {
	if len(v) < ExpiryLen {
		return 0, nil, false
	}
	return int64(binary.LittleEndian.Uint64(v)), v[ExpiryLen:], true
}

// SharedPrefixLen returns the length of the common prefix of a and b.
// It underpins the prefix-compressed block encoding in sstables.
func SharedPrefixLen(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}
