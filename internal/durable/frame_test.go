package durable

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReadFrames checks the journal frame decoder on arbitrary bytes: the
// valid prefix it reports lies within the input, re-framing its payloads
// with appendFrame reproduces that prefix byte for byte, and a good frame
// appended to the prefix decodes as one more record. Together these say a
// torn or corrupt tail is cut exactly at the last good frame, and that an
// append after recovery is readable.
func FuzzReadFrames(f *testing.F) {
	first, second := []byte(`{"seq":1,"op":"withdraw","p":3}`), []byte(`{"seq":2,"op":"restore","p":3}`)
	one := appendFrame(nil, first)
	good := appendFrame(bytes.Clone(one), second)
	f.Add([]byte{})
	f.Add(good)
	f.Add(good[:len(one)+frameHeader+3]) // a good frame, then a torn tail
	flipped := bytes.Clone(one)
	flipped[4] ^= 0x10 // one CRC bit
	f.Add(flipped)
	huge := bytes.Clone(one)
	binary.LittleEndian.PutUint32(huge, 1<<31-1) // a length field that overflows a 32-bit offset
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		payloads, validLen := readFrames(data)
		if validLen < 0 || validLen > len(data) {
			t.Fatalf("valid prefix %d outside [0, %d]", validLen, len(data))
		}
		var reframed []byte
		for _, p := range payloads {
			reframed = appendFrame(reframed, p)
		}
		if !bytes.Equal(reframed, data[:validLen]) {
			t.Fatalf("re-framing %d payloads gives %d bytes, not the %d-byte valid prefix", len(payloads), len(reframed), validLen)
		}
		extended := appendFrame(bytes.Clone(data[:validLen]), second)
		got, n := readFrames(extended)
		if n != len(extended) || len(got) != len(payloads)+1 || !bytes.Equal(got[len(payloads)], second) {
			t.Fatalf("a frame appended to the valid prefix did not decode as one more record: %d of %d bytes, %d records after %d", n, len(extended), len(got), len(payloads))
		}
	})
}
