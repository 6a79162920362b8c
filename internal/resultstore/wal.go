package resultstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"

	"repro/internal/fsys"
)

// WAL framing: every record is
//
//	uint32 big-endian payload length
//	uint32 big-endian CRC-32 (IEEE) of the payload
//	payload bytes
//
// There is no file header, so a record's commit point is simply the
// byte offset past its payload — which is what makes the power-cut
// torture test's "truncate at every offset" model exact. A record is
// committed iff all of its bytes (header + payload) reached the file;
// any shorter prefix is a torn tail that recovery silently drops.
const recordHeaderSize = 8

// maxRecordSize bounds a single record; a length field above it is
// treated as corruption (torn tail), not an allocation request.
const maxRecordSize = 64 << 20

// sealRecord fills in the header reserved at buf[at:] for the payload
// appended behind it, which runs to the end of buf.
func sealRecord(buf []byte, at int) {
	payload := buf[at+recordHeaderSize:]
	binary.BigEndian.PutUint32(buf[at:], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[at+4:], crc32.ChecksumIEEE(payload))
}

// scanRecords walks a segment's bytes and returns the committed
// payloads plus the offset of the first torn or corrupt record (==
// len(data) when the segment is clean). It never returns an error:
// a torn tail is an expected crash artifact, and recovery's contract
// is to keep every fully-committed record before it.
func scanRecords(data []byte) (payloads [][]byte, good int) {
	off := 0
	for {
		if off+recordHeaderSize > len(data) {
			return payloads, off
		}
		n := int(binary.BigEndian.Uint32(data[off : off+4]))
		sum := binary.BigEndian.Uint32(data[off+4 : off+8])
		if n > maxRecordSize || off+recordHeaderSize+n > len(data) {
			return payloads, off
		}
		payload := data[off+recordHeaderSize : off+recordHeaderSize+n]
		if crc32.ChecksumIEEE(payload) != sum {
			return payloads, off
		}
		payloads = append(payloads, payload)
		off += recordHeaderSize + n
	}
}

const (
	segmentPrefix  = "wal-"
	segmentSuffix  = ".log"
	snapshotPrefix = "snap-"
	snapshotSuffix = ".json"
)

func segmentName(n int) string  { return fmt.Sprintf("%s%08d%s", segmentPrefix, n, segmentSuffix) }
func snapshotName(n int) string { return fmt.Sprintf("%s%08d%s", snapshotPrefix, n, snapshotSuffix) }

// parseNumbered extracts the sequence number from a segment or
// snapshot file name.
func parseNumbered(name, prefix, suffix string) (int, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	n := 0
	if len(mid) == 0 {
		return 0, false
	}
	for _, c := range mid {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// listNumbered returns the sequence numbers of the files in dir
// matching prefix/suffix, ascending.
func listNumbered(disk fsys.FS, dir, prefix, suffix string) ([]int, error) {
	entries, err := disk.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []int
	for _, e := range entries {
		if n, ok := parseNumbered(e.Name(), prefix, suffix); ok {
			out = append(out, n)
		}
	}
	sort.Ints(out)
	return out, nil
}
