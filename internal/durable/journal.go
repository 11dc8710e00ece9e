package durable

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Record framing: every snapshot file and journal record is stored as
//
//	[u32 little-endian payload length][u32 little-endian CRC-32C][payload]
//
// The CRC covers the payload only. A record whose header or payload extends
// past the end of the file, or whose checksum mismatches, marks the end of
// the valid prefix: everything before it replays, everything from it on is
// discarded as a torn tail. That is exactly the failure mode of a crash (or
// SIGKILL) between a write and its fsync — the tail record may be missing,
// short, or garbage, but records the store acknowledged as synced are always
// complete and in the prefix.

var crcTable = crc32.MakeTable(crc32.Castagnoli)

const frameHeader = 8

// appendFrame appends one framed record to buf.
func appendFrame(buf, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	buf = append(buf, hdr[:]...)
	return append(buf, payload...)
}

// readFrame decodes the framed record starting at data[off]. It returns the
// payload and the offset of the next record, or ok=false when the record is
// truncated or fails its checksum — the torn-tail marker.
func readFrame(data []byte, off int) (payload []byte, next int, ok bool) {
	if off+frameHeader > len(data) {
		return nil, off, false
	}
	n := int(binary.LittleEndian.Uint32(data[off : off+4]))
	sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
	// Compared against the bytes left, not as off+frameHeader+n: with a
	// 32-bit int a length field near 2³¹ would wrap that sum negative.
	if n < 0 || n > len(data)-off-frameHeader {
		return nil, off, false
	}
	payload = data[off+frameHeader : off+frameHeader+n]
	if crc32.Checksum(payload, crcTable) != sum {
		return nil, off, false
	}
	return payload, off + frameHeader + n, true
}

// readFrames decodes every valid record of a journal image and returns the
// byte length of the valid prefix; bytes beyond it are a torn tail.
func readFrames(data []byte) (payloads [][]byte, validLen int) {
	off := 0
	for {
		payload, next, ok := readFrame(data, off)
		if !ok {
			return payloads, off
		}
		payloads = append(payloads, payload)
		off = next
	}
}

// readSingleFrame decodes a file that must hold exactly one framed record
// (the snapshot file).
func readSingleFrame(data []byte, what string) ([]byte, error) {
	payload, next, ok := readFrame(data, 0)
	if !ok {
		return nil, fmt.Errorf("durable: %s is truncated or corrupt", what)
	}
	if next != len(data) {
		return nil, fmt.Errorf("durable: %s has %d trailing bytes", what, len(data)-next)
	}
	return payload, nil
}
