package tdaccess

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
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
// record, that ReadFrom returns CRC-clean; appends resume at the
// boundary; and after Close the file is that prefix and the appended
// record, the torn tail cut off.
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
	// What a process killed with its active segment mapped leaves: the
	// records, then the zeros of the reservation, whole or torn.
	zeros := make([]byte, 256)
	f.Add(append(bytes.Clone(seed), zeros...))
	f.Add(append(bytes.Clone(seed[:len(seed)-3]), zeros...))

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
		off, err := l.Append([]byte("next"))
		if err != nil || off != n {
			t.Fatalf("Append after recovery = %d, %v; want offset %d", off, err, n)
		}
		if b, err := l.Read(off); err != nil || string(b) != "next" {
			t.Fatalf("Read(%d) after recovery = %q, %v", off, b, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if st, err := os.Stat(path); err != nil || st.Size() != int64(pos+recordHeader+len("next")) {
			t.Fatalf("segment is %d bytes after Close, clean prefix is %d and the appended record %d (%v)", st.Size(), pos, recordHeader+len("next"), err)
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

// encodeLog is the reference encoder: the segment files that one write(2)
// per record leaves for bodies appended to a log rotating at segBytes,
// each named for its base offset. A segment rotates before the append
// that finds it at or past segBytes.
func encodeLog(bodies [][]byte, segBytes int) map[string][]byte {
	files := make(map[string][]byte)
	var name string
	for i, b := range bodies {
		if name == "" || len(files[name]) >= segBytes {
			name = fmt.Sprintf("seg-%012d.log", i)
		}
		var hdr [recordHeader]byte
		binary.LittleEndian.PutUint32(hdr[0:4], crc32.ChecksumIEEE(b))
		binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(b)))
		files[name] = append(append(files[name], hdr[:]...), b...)
	}
	return files
}

// readLogDir returns every segment file of dir by name.
func readLogDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, n := range names {
		b, err := os.ReadFile(n)
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Base(n)] = b
	}
	return files
}

// sameFiles fails unless got and want hold the same file names and bytes.
func sameFiles(t *testing.T, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d segment files, want %d", len(got), len(want))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || !bytes.Equal(g, w) {
			t.Fatalf("%s is %d bytes (present %v), want %d bytes of the reference encoding", name, len(g), ok, len(w))
		}
	}
}

// TestClosedLogMatchesWritePerRecord: appends across rotations of a
// 256-byte segment leave, once the log is closed, the files a write(2)
// per record left, byte for byte and boundary for boundary; the sealed
// segments are those bytes already while the log is open. An empty body
// is refused, since a zero header is where recovery stops.
func TestClosedLogMatchesWritePerRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := openLog(dir, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var bodies [][]byte
	for i := 0; i < 40; i++ {
		b := bytes.Repeat([]byte{byte('a' + i%26)}, 1+i*7%50)
		if off, err := l.Append(b); err != nil || off != int64(i) {
			t.Fatalf("Append(%d) = %d, %v", i, off, err)
		}
		bodies = append(bodies, b)
	}
	if _, err := l.Append(nil); err == nil {
		t.Fatal("an empty body was appended")
	}
	want := encodeLog(bodies, 256)
	if len(want) < 3 || l.SegmentCount() != len(want) {
		t.Fatalf("%d segments, the reference has %d: want three or more", l.SegmentCount(), len(want))
	}
	open := readLogDir(t, dir)
	for name, w := range want {
		if name != filepath.Base(l.segments[len(l.segments)-1].path) && !bytes.Equal(open[name], w) {
			t.Fatalf("sealed %s differs from the reference while the log is open", name)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	sameFiles(t, readLogDir(t, dir), want)
}

// TestLiveCopyRecovers is a crash of the process shape: the directory of
// an open log, its active segment mapped and its reservation a zero tail
// on disk, copied and opened as a log of its own. It recovers exactly the
// records appended, appends resume at the boundary, and Close cuts the
// file to its records.
func TestLiveCopyRecovers(t *testing.T) {
	dir := t.TempDir()
	l, err := openLog(dir, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var bodies [][]byte
	for i := 0; i < 150; i++ {
		if _, err := l.Append(testBody(i)); err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, testBody(i))
	}
	live := readLogDir(t, dir)
	active := filepath.Base(l.segments[len(l.segments)-1].path)
	if want := encodeLog(bodies, 1024)[active]; len(live[active]) <= len(want) {
		t.Fatalf("the active segment is %d bytes on disk, its records %d: no zero tail to recover from", len(live[active]), len(want))
	}
	cp := t.TempDir()
	for name, b := range live {
		if err := os.WriteFile(filepath.Join(cp, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	c, err := openLog(cp, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.NextOffset() != l.NextOffset() {
		t.Fatalf("the copy recovered NextOffset %d, the log has %d", c.NextOffset(), l.NextOffset())
	}
	got, err := c.ReadFrom(nil, 0, len(bodies)+1)
	if err != nil || len(got) != len(bodies) {
		t.Fatalf("the copy reads %d records, %v; want %d", len(got), err, len(bodies))
	}
	for i, b := range got {
		if !bytes.Equal(b, bodies[i]) {
			t.Fatalf("record %d of the copy = %q, want %q", i, b, bodies[i])
		}
	}
	next := []byte("after the crash")
	if off, err := c.Append(next); err != nil || off != int64(len(bodies)) {
		t.Fatalf("Append on the copy = %d, %v; want offset %d", off, err, len(bodies))
	}
	if b, err := c.Read(int64(len(bodies))); err != nil || !bytes.Equal(b, next) {
		t.Fatalf("Read of the appended record = %q, %v", b, err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	sameFiles(t, readLogDir(t, cp), encodeLog(append(bodies, next), 1024))
}

// fullDiskEnv names the directory the child of TestFullDiskIsASendError
// publishes into.
const fullDiskEnv = "TDACCESS_FULL_DISK_DIR"

// TestFullDiskIsASendError: a publish that finds no room for the active
// segment's next reservation is an error returned by Send, and the records
// before it stay readable; a store into the mapping never meets a block
// the disk could not give (SIGBUS). A file size limit (RLIMIT_FSIZE) in a
// child process stands in for the full disk.
func TestFullDiskIsASendError(t *testing.T) {
	if dir := os.Getenv(fullDiskEnv); dir != "" {
		fullDiskChild(t, dir)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestFullDiskIsASendError$", "-test.v")
	cmd.Env = append(os.Environ(), fullDiskEnv+"="+t.TempDir())
	out, err := cmd.CombinedOutput()
	if err != nil || !strings.Contains(string(out), "--- PASS: TestFullDiskIsASendError") {
		t.Fatalf("child: %v\n%s", err, out)
	}
}

func fullDiskChild(t *testing.T, dir string) {
	const limit = 1 << 20
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &syscall.Rlimit{Cur: limit, Max: limit}); err != nil {
		t.Fatal(err)
	}
	b, err := NewBroker(Options{Dir: dir, Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	p := b.NewProducer()
	payload := bytes.Repeat([]byte("a"), 30)
	var sent int64
	for ; sent < 2*limit/47; sent++ {
		if _, _, err = p.Send("actions", "user-001", payload); err != nil {
			break
		}
	}
	if err == nil || !strings.Contains(err.Error(), "reserve") {
		t.Fatalf("%d sends past a %d-byte file limit, last error %v", sent, limit, err)
	}
	if sent*47 > limit || sent*47 < limit/2 {
		t.Fatalf("the first failed send was number %d, %d bytes into a %d-byte limit", sent, sent*47, limit)
	}
	c := b.NewConsumer("g")
	if err := c.Subscribe("actions"); err != nil {
		t.Fatal(err)
	}
	var read int64
	for {
		msgs, err := c.Poll(4096)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) == 0 {
			break
		}
		read += int64(len(msgs))
	}
	if read != sent {
		t.Fatalf("read %d records back, sent %d", read, sent)
	}
}
