package tdaccess

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func testBody(i int) []byte { return []byte(fmt.Sprintf("record-%04d", i)) }

// Append writes one record and returns its message offset.
func (l *plog) Append(body []byte) (int64, error) { return l.appendParts(nil, "", body) }

// Read returns the record at the given message offset.
func (l *plog) Read(offset int64) ([]byte, error) {
	var one [1][]byte
	out, err := l.ReadFrom(one[:0], offset, 1)
	if err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, ErrOffsetOutOfRange
	}
	return out[0], nil
}

// flipByte inverts one byte inside the body of the record at offset.
func flipByte(t *testing.T, l *plog, offset int64) {
	t.Helper()
	l.mu.RLock()
	seg := l.segments[0]
	pos := decodeSegment(t, seg.path)[offset-seg.base].pos + recordHeader + 2
	l.mu.RUnlock()
	f, err := os.OpenFile(seg.path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], pos); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], pos); err != nil {
		t.Fatal(err)
	}
}

// dropLeadingSegments closes l, deletes its first n segment files and
// reopens what is left, the state of a log whose head has been reclaimed.
func dropLeadingSegments(t *testing.T, l *plog, n int) *plog {
	t.Helper()
	l.mu.RLock()
	dir, size, segs := l.dir, l.segmentSize, l.segments[:n]
	l.mu.RUnlock()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		if err := os.Remove(seg.path); err != nil {
			t.Fatal(err)
		}
	}
	l, err := openLog(dir, size)
	if err != nil {
		t.Fatal(err)
	}
	last := segs[n-1]
	if first, want := l.segments[0].base, last.base+last.count; first != want {
		t.Fatalf("reopened log starts at offset %d, want %d", first, want)
	}
	return l
}

// TestReadFromRuns drives the run reader through the shapes a poll meets.
// A record is 11 bytes of body behind the 8-byte header, so a 64-byte
// segment rotates every four records.
func TestReadFromRuns(t *testing.T) {
	seq := func(from, to int) []int {
		var out []int
		for i := from; i < to; i++ {
			out = append(out, i)
		}
		return out
	}
	cases := []struct {
		name     string
		segBytes int64
		records  int
		setup    func(t *testing.T, l *plog)
		drop     int // leading segment files deleted before the log is reopened
		offset   int64
		max      int
		want     []int  // record numbers returned
		wantIs   error  // errors.Is target, or
		wantText string // a substring of the error
	}{
		{name: "whole log is one run", records: 10, offset: 0, max: 100, want: seq(0, 10)},
		{name: "run crosses rotations", segBytes: 64, records: 20, offset: 3, max: 100, want: seq(3, 20)},
		{name: "max smaller than the run", records: 10, offset: 2, max: 3, want: seq(2, 5)},
		{name: "max ends inside a later segment", segBytes: 64, records: 20, offset: 0, max: 7, want: seq(0, 7)},
		{name: "one record", segBytes: 64, records: 20, offset: 19, max: 1, want: seq(19, 20)},
		{name: "offset at the tail", records: 10, offset: 10, max: 5},
		{name: "offset past the tail", records: 10, offset: 99, max: 5},
		{name: "negative offset", records: 10, offset: -1, max: 5, wantIs: ErrOffsetOutOfRange},
		{
			name: "flipped byte in the middle record", records: 5, offset: 0, max: 5,
			setup:    func(t *testing.T, l *plog) { flipByte(t, l, 2) },
			want:     seq(0, 2),
			wantText: "crc mismatch at offset 2",
		},
		// Segments hold offsets 0-3, 4-7, 8-11, ...: dropping the first two
		// leaves a log whose first segment starts at 8.
		{name: "trimmed first segment", segBytes: 64, records: 20, drop: 2, offset: 0, max: 5, wantIs: ErrOffsetOutOfRange},
		{name: "behind a trimmed segment", segBytes: 64, records: 20, drop: 2, offset: 12, max: 100, want: seq(12, 20)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, err := openLog(t.TempDir(), tc.segBytes)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { l.Close() }()
			for i := 0; i < tc.records; i++ {
				if off, err := l.Append(testBody(i)); err != nil || off != int64(i) {
					t.Fatalf("Append(%d) = %d, %v", i, off, err)
				}
			}
			if tc.segBytes > 0 && l.SegmentCount() < 4 {
				t.Fatalf("only %d segments: the case does not cross a rotation", l.SegmentCount())
			}
			if tc.setup != nil {
				tc.setup(t, l)
			}
			if tc.drop > 0 {
				l = dropLeadingSegments(t, l, tc.drop)
			}
			got, err := l.ReadFrom(nil, tc.offset, tc.max)
			switch {
			case tc.wantIs != nil:
				if !errors.Is(err, tc.wantIs) {
					t.Fatalf("err = %v, want %v", err, tc.wantIs)
				}
			case tc.wantText != "":
				if err == nil || !strings.Contains(err.Error(), tc.wantText) {
					t.Fatalf("err = %v, want one naming %q", err, tc.wantText)
				}
			case err != nil:
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("read %d records, want %d", len(got), len(tc.want))
			}
			// A caller may append to a payload it was handed: the bodies
			// share a buffer, so each must be clipped to its own bytes.
			for _, b := range got {
				_ = append(b, "overrun"...)
			}
			for i, b := range got {
				if !bytes.Equal(b, testBody(tc.want[i])) {
					t.Fatalf("record %d = %q, want %q", i, b, testBody(tc.want[i]))
				}
			}
			// Read is the one-record case of the same path.
			one, err := l.Read(tc.offset)
			if len(tc.want) > 0 {
				if err != nil || !bytes.Equal(one, testBody(tc.want[0])) {
					t.Fatalf("Read(%d) = %q, %v", tc.offset, one, err)
				}
			} else if err == nil {
				t.Fatalf("Read(%d) = %q, want an error", tc.offset, one)
			}
		})
	}
}

// TestReadFromBesideAppender: a poller reading runs while an appender
// rotates segments under it sees every record once, whole and in order.
// Meaningful under -race (scripts/check.sh runs the package with it).
func TestReadFromBesideAppender(t *testing.T) {
	const total = 3000
	l, err := openLog(t.TempDir(), 512)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			if _, err := l.Append(testBody(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	next := 0
	var scratch [][]byte
	for next < total && !t.Failed() {
		var err error
		scratch, err = l.ReadFrom(scratch[:0], int64(next), 37)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range scratch {
			if !bytes.Equal(b, testBody(next)) {
				t.Fatalf("record %d read as %q", next, b)
			}
			next++
		}
		if len(scratch) == 0 {
			runtime.Gosched()
		}
	}
	wg.Wait()
}

// TestRecoverDoesNotTrustLength: a header that claims more than the file
// holds is a torn tail, decided without allocating what it claims.
func TestRecoverDoesNotTrustLength(t *testing.T) {
	dir := t.TempDir()
	file := make([]byte, recordHeader, recordHeader+10)
	binary.LittleEndian.PutUint32(file[4:8], maxMessage)
	file = append(file, "ten bytes."...)
	if err := os.WriteFile(filepath.Join(dir, "seg-000000000000.log"), file, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l, err := openLog(dir, 0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.NextOffset() != 0 {
		t.Fatalf("recovered %d records from a torn header", l.NextOffset())
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("recovery allocated %d bytes for a %d-byte file", grew, len(file))
	}
}

// FuzzRecoverSegment hands openLog arbitrary bytes as a segment file, the
// one decoder that reads this layer's bytes back from disk. Properties:
// it never panics; what it recovers is a prefix of the file, record for
// record, that ReadFrom returns CRC-clean; the torn tail is cut off; and
// appends resume at the boundary.
func FuzzRecoverSegment(f *testing.F) {
	seedDir := f.TempDir()
	l, err := openLog(seedDir, 0)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := appendMessage(l, fmt.Sprintf("user-%d", i), testBody(i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(filepath.Join(seedDir, "seg-000000000000.log"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3]) // torn inside the last body
	f.Add(seed[:recordHeader/2])
	flipped := bytes.Clone(seed)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	huge := bytes.Clone(seed)
	binary.LittleEndian.PutUint32(huge[4:8], maxMessage) // first length lies
	f.Add(huge)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "seg-000000000000.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := openLog(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		n := l.NextOffset()
		bodies, err := l.ReadFrom(nil, 0, int(n)+1)
		if err != nil || int64(len(bodies)) != n {
			t.Fatalf("recovered %d records but read %d back: %v", n, len(bodies), err)
		}
		pos := 0
		for i, b := range bodies {
			pos += recordHeader
			if pos+len(b) > len(data) || !bytes.Equal(b, data[pos:pos+len(b)]) {
				t.Fatalf("record %d is not the file's bytes at %d", i, pos)
			}
			pos += len(b)
		}
		if st, err := os.Stat(path); err != nil || st.Size() != int64(pos) {
			t.Fatalf("segment is %d bytes after recovery, clean prefix is %d (%v)", st.Size(), pos, err)
		}
		off, err := l.Append([]byte("next"))
		if err != nil || off != n {
			t.Fatalf("Append after recovery = %d, %v; want offset %d", off, err, n)
		}
		if b, err := l.Read(off); err != nil || string(b) != "next" {
			t.Fatalf("Read(%d) after recovery = %q, %v", off, b, err)
		}
	})
}

// TestReadFromHole: a segment that is not the last and lost its tail to
// corruption leaves offsets nobody can read. The records before the hole
// are delivered, the hole itself reports ErrOffsetOutOfRange, and reading
// resumes behind it.
func TestReadFromHole(t *testing.T) {
	dir := t.TempDir()
	l, err := openLog(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := l.Append(testBody(i)); err != nil {
			t.Fatal(err)
		}
	}
	flipByte(t, l, 2) // first segment holds 0..3: 2 and 3 are lost
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err = openLog(dir, 64); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if l.NextOffset() != 12 {
		t.Fatalf("NextOffset = %d after recovery, want 12", l.NextOffset())
	}
	got, err := l.ReadFrom(nil, 0, 100)
	if err != nil || len(got) != 2 {
		t.Fatalf("ReadFrom(0) = %d records, %v; want the 2 before the hole", len(got), err)
	}
	for _, off := range []int64{2, 3} {
		if got, err := l.ReadFrom(nil, off, 100); !errors.Is(err, ErrOffsetOutOfRange) || len(got) != 0 {
			t.Fatalf("ReadFrom(%d) = %d records, %v; want ErrOffsetOutOfRange", off, len(got), err)
		}
	}
	got, err = l.ReadFrom(nil, 4, 100)
	if err != nil || len(got) != 8 || !bytes.Equal(got[0], testBody(4)) {
		t.Fatalf("ReadFrom(4) = %d records, %v; want 4..11", len(got), err)
	}
}
