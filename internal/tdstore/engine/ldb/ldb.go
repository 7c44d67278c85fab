// Package ldb implements TDStore's Level DataBase (LDB) storage engine: a
// log-structured key-value store in the spirit of LevelDB, which the paper
// lists among the engines its data servers support (§3.3).
//
// Writes go to a write-ahead log and an in-memory memtable; when the
// memtable grows past a threshold it is flushed to an immutable sorted
// string table (SSTable) and the log is rotated. Reads consult the
// memtable first, then a block cache over the tables from newest to
// oldest. A background compactor merges all tables into one under a
// token-bucket byte-rate limit when the table count grows past a
// threshold. All I/O is sequential on the write path, matching the
// paper's emphasis on sequential operations for disk-backed components
// (§3.2).
//
// Durability contract: with SyncWrites off, a write survives a process
// crash once the OS has the bytes (every record is pushed to the kernel
// before Put returns) but not a power loss. With SyncWrites on and
// SyncInterval zero, every record is fsynced before Put returns. With
// SyncWrites on and a positive SyncInterval, writers park until the next
// group fsync covers their record — one fsync amortizes every record
// appended during the interval. A torn record at the WAL tail (crash
// mid-append) is detected by CRC/length on reopen, truncated away, and
// appending continues from the last intact record; an fsynced record is
// never lost and a partial one is never surfaced.
package ldb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tencentrec/internal/tdstore/engine"
)

const (
	walName               = "wal.log"
	sstPrefix             = "sst-"
	sstSuffix             = ".tbl"
	flagTomb              = 1
	maxRecord             = 64 << 20 // sanity bound on a single record
	defaultFlushThreshold = 4096
	defaultMaxTables      = 8

	// DefaultBlockCacheBytes is the SSTable read-cache budget when
	// Options.BlockCacheBytes is zero.
	DefaultBlockCacheBytes = 8 << 20
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("ldb: store is closed")

// errCorrupt marks a structurally invalid record — the shapes a torn or
// partially written tail produces (bad CRC, absurd lengths) — as opposed
// to an I/O failure reading an otherwise intact file.
var errCorrupt = errors.New("ldb: corrupt record")

// isTornTail reports whether a readRecord error is one a crash
// mid-append can produce: the record cut short by end-of-file or left
// structurally invalid. I/O errors (a failing disk mid-file) are not
// torn tails — truncating on them would silently discard valid records
// beyond the fault.
func isTornTail(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, errCorrupt)
}

// wfile is the WAL file contract. It is an interface so tests can
// interpose a failpoint wrapper (failpoint.go) between the store and the
// OS and inject errors, short writes, or a simulated crash at a chosen
// byte offset.
type wfile interface {
	io.Writer
	Sync() error
	Close() error
}

// Options configure a Store.
type Options struct {
	// FlushThreshold is the number of memtable entries that triggers a
	// flush to an SSTable. Zero means a default of 4096.
	FlushThreshold int
	// MaxTables is the number of SSTables that triggers a background
	// compaction. Zero means a default of 8.
	MaxTables int
	// SyncWrites fsyncs the WAL before a write returns. Durability
	// against power loss at the cost of throughput; off by default.
	SyncWrites bool
	// SyncInterval batches fsyncs when SyncWrites is on: writers park
	// until the next group fsync covers their record, so one fsync per
	// interval serves every writer that arrived during it. Zero fsyncs
	// each record individually.
	SyncInterval time.Duration
	// BlockCacheBytes caps the SSTable read cache. Zero means
	// DefaultBlockCacheBytes; negative disables the cache.
	BlockCacheBytes int
	// CompactRateBytes bounds compaction I/O (bytes read plus bytes
	// written per second, token bucket). Zero means unlimited.
	CompactRateBytes int

	// walHook wraps the WAL file after each open, letting tests inject
	// faults. Production code leaves it nil.
	walHook func(wfile) wfile
}

// entry is a memtable cell; nil value with tomb set marks a deletion.
type entry struct {
	value []byte
	tomb  bool
}

// tableEntry locates a record inside an SSTable file.
type tableEntry struct {
	offset int64
	length int // value length
	tomb   bool
}

// sstable is an immutable on-disk table with a resident index. lo and hi
// are the flush-sequence range the table covers: a freshly flushed table
// has lo == hi, a compacted table spans the sequences of its inputs and
// supersedes any table whose range it contains (crash recovery after an
// interrupted compaction cleanup).
type sstable struct {
	lo, hi int
	path   string
	f      *os.File
	index  map[string]tableEntry
	bytes  int64 // on-disk size, for compaction accounting
}

// stats are the engine's observability counters (engine.Stats). All are
// written under Store.mu except the block-cache pair, which the lock-free
// read path updates atomically.
type stats struct {
	walBytes        int64
	fsyncs          int64
	memtableFlushes int64
	compactions     int64
	compactionBytes int64
	recoveryNanos   int64
	replayedRecords int64
	tornTails       int64
}

// Store is an LDB engine instance rooted at a directory.
type Store struct {
	mu      sync.Mutex
	dir     string
	opts    Options
	walF    *os.File // underlying WAL file (truncate/repair path)
	wal     wfile    // possibly hook-wrapped view used for writes
	walBuf  *bufio.Writer
	walOff  int64 // bytes durably handed to the OS (clean record boundary)
	mem     map[string]entry
	nextSeq int
	closed  bool
	st      stats

	// tableMu guards the tables slice and the lifetime of the table file
	// handles: readers hold RLock across ReadAt, and compaction swaps the
	// stack and closes retired files under Lock, so a reader never touches
	// a closed file. Lock order is always mu before tableMu.
	tableMu sync.RWMutex
	tables  []*sstable // oldest first

	// Group commit: walSeq numbers appended records, syncedSeq is the
	// highest record covered by an fsync (or made durable by a rotation
	// into an fsynced table). walGen invalidates an in-flight group sync
	// when the WAL rotates underneath it.
	walSeq    int64
	syncedSeq int64
	walGen    int64
	syncErr   error
	syncCond  *sync.Cond
	syncStop  chan struct{}
	syncDone  chan struct{}

	// Background compaction.
	compactMu   sync.Mutex // serializes merges (background and manual)
	compactCh   chan struct{}
	compactStop chan struct{}
	compactDone chan struct{}
	compactErr  error // sticky first background-compaction failure

	cache     *blockCache
	rate      *rateLimiter
	cacheHits atomic.Int64
	cacheMiss atomic.Int64
}

// Open opens (creating if necessary) an LDB store in dir. An existing WAL
// is replayed into the memtable; a torn record at its tail is truncated
// away and appending resumes at the last intact record.
func Open(dir string, opts Options) (*Store, error) {
	start := time.Now()
	if opts.FlushThreshold <= 0 {
		opts.FlushThreshold = defaultFlushThreshold
	}
	if opts.MaxTables <= 0 {
		opts.MaxTables = defaultMaxTables
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ldb: create dir: %w", err)
	}
	s := &Store{
		dir:         dir,
		opts:        opts,
		mem:         make(map[string]entry),
		syncStop:    make(chan struct{}),
		syncDone:    make(chan struct{}),
		compactCh:   make(chan struct{}, 1),
		compactStop: make(chan struct{}),
		compactDone: make(chan struct{}),
	}
	s.syncCond = sync.NewCond(&s.mu)
	if opts.BlockCacheBytes >= 0 {
		budget := opts.BlockCacheBytes
		if budget == 0 {
			budget = DefaultBlockCacheBytes
		}
		s.cache = newBlockCache(int64(budget))
	}
	if opts.CompactRateBytes > 0 {
		s.rate = newRateLimiter(opts.CompactRateBytes)
	}
	if err := s.loadTables(); err != nil {
		return nil, err
	}
	if err := s.replayWAL(); err != nil {
		return nil, err
	}
	if err := s.openWAL(); err != nil {
		return nil, err
	}
	s.st.recoveryNanos = time.Since(start).Nanoseconds()
	go s.compactLoop()
	if opts.SyncWrites && opts.SyncInterval > 0 {
		go s.syncLoop()
	} else {
		close(s.syncDone)
	}
	return s, nil
}

// parseTableName extracts the sequence range from an SSTable file name:
// sst-<seq>.tbl for flushed tables, sst-<lo>-<hi>.tbl for compacted ones.
func parseTableName(base string) (lo, hi int, ok bool) {
	numStr := strings.TrimSuffix(strings.TrimPrefix(base, sstPrefix), sstSuffix)
	if i := strings.IndexByte(numStr, '-'); i >= 0 {
		lo, err1 := strconv.Atoi(numStr[:i])
		hi, err2 := strconv.Atoi(numStr[i+1:])
		if err1 != nil || err2 != nil || hi < lo {
			return 0, 0, false
		}
		return lo, hi, true
	}
	seq, err := strconv.Atoi(numStr)
	if err != nil {
		return 0, 0, false
	}
	return seq, seq, true
}

func tableName(lo, hi int) string {
	if lo == hi {
		return fmt.Sprintf("%s%08d%s", sstPrefix, lo, sstSuffix)
	}
	return fmt.Sprintf("%s%08d-%08d%s", sstPrefix, lo, hi, sstSuffix)
}

func (s *Store) loadTables() error {
	names, err := filepath.Glob(filepath.Join(s.dir, sstPrefix+"*"+sstSuffix))
	if err != nil {
		return fmt.Errorf("ldb: list tables: %w", err)
	}
	type seqName struct {
		lo, hi int
		name   string
	}
	var sns []seqName
	for _, n := range names {
		lo, hi, ok := parseTableName(filepath.Base(n))
		if !ok {
			continue // not ours
		}
		sns = append(sns, seqName{lo, hi, n})
	}
	// A compacted table supersedes every table whose range it strictly
	// contains: a crash between publishing the merged table and removing
	// its inputs leaves both on disk, and replaying the stale inputs as
	// if they were newer would resurrect overwritten values.
	live := sns[:0]
	for _, sn := range sns {
		superseded := false
		for _, other := range sns {
			if other.name != sn.name && other.lo <= sn.lo && sn.hi <= other.hi {
				superseded = true
				break
			}
		}
		if superseded {
			os.Remove(sn.name)
			continue
		}
		live = append(live, sn)
	}
	sort.Slice(live, func(i, j int) bool { return live[i].lo < live[j].lo })
	for _, sn := range live {
		t, err := openTable(sn.lo, sn.hi, sn.name)
		if err != nil {
			return err
		}
		s.tables = append(s.tables, t)
		if sn.hi >= s.nextSeq {
			s.nextSeq = sn.hi + 1
		}
	}
	return nil
}

func openTable(lo, hi int, path string) (*sstable, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ldb: open table: %w", err)
	}
	t := &sstable{lo: lo, hi: hi, path: path, f: f, index: make(map[string]tableEntry)}
	r := bufio.NewReader(f)
	var off int64
	for {
		rec, n, err := readRecord(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("ldb: table %s corrupt at offset %d: %w", path, off, err)
		}
		t.index[string(rec.key)] = tableEntry{
			offset: off + int64(n) - int64(len(rec.value)),
			length: len(rec.value),
			tomb:   rec.tomb,
		}
		off += int64(n)
	}
	t.bytes = off
	return t, nil
}

// replayWAL rebuilds the memtable from the WAL. A torn tail — a record
// cut short or corrupted by a crash mid-append — is detected by its CRC
// or truncated frame, the file is truncated back to the last intact
// record, and the store continues from there. Everything the OS had
// durably (and with SyncWrites, everything acknowledged) is recovered;
// no partial record is ever surfaced.
func (s *Store) replayWAL() error {
	path := filepath.Join(s.dir, walName)
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("ldb: open wal: %w", err)
	}
	r := bufio.NewReader(f)
	var off int64
	torn := false
	for {
		rec, n, err := readRecord(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			// Only the shapes a crash mid-append produces are repaired by
			// truncation; a genuine read failure (disk I/O error) must
			// surface, not silently discard the records after it.
			if !isTornTail(err) {
				f.Close()
				return fmt.Errorf("ldb: read wal at offset %d: %w", off, err)
			}
			torn = true
			break
		}
		if rec.tomb {
			s.mem[string(rec.key)] = entry{tomb: true}
		} else {
			s.mem[string(rec.key)] = entry{value: rec.value}
		}
		off += int64(n)
		s.st.replayedRecords++
	}
	f.Close()
	if torn {
		s.st.tornTails++
		if err := os.Truncate(path, off); err != nil {
			return fmt.Errorf("ldb: truncate torn wal tail: %w", err)
		}
	}
	s.walOff = off
	return nil
}

func (s *Store) openWAL() error {
	f, err := os.OpenFile(filepath.Join(s.dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("ldb: open wal for append: %w", err)
	}
	s.walF = f
	s.wal = f
	if s.opts.walHook != nil {
		s.wal = s.opts.walHook(f)
	}
	s.walBuf = bufio.NewWriter(s.wal)
	return nil
}

// repairWALLocked recovers from a failed or short WAL append: the file is
// truncated back to the last clean record boundary and reopened, so the
// log never carries a torn record in its middle and the next append
// starts from a consistent tail. Called with s.mu held.
func (s *Store) repairWALLocked() {
	if s.wal != nil {
		s.wal.Close()
	}
	path := filepath.Join(s.dir, walName)
	_ = os.Truncate(path, s.walOff)
	_ = s.openWAL() // a failure here resurfaces on the next append
	s.walGen++
}

// record is the shared WAL/SSTable on-disk record.
type record struct {
	tomb  bool
	key   []byte
	value []byte
}

// writeRecord appends rec to w and returns the number of bytes written.
// Layout: crc32(body) | body, body = flags | klen | key | vlen | value.
func writeRecord(w io.Writer, rec record) (int, error) {
	var hdr [1 + 2*binary.MaxVarintLen64]byte
	i := 0
	if rec.tomb {
		hdr[i] = flagTomb
	} else {
		hdr[i] = 0
	}
	i++
	i += binary.PutUvarint(hdr[i:], uint64(len(rec.key)))
	i += binary.PutUvarint(hdr[i:], uint64(len(rec.value)))
	crc := crc32.NewIEEE()
	crc.Write(hdr[:i])
	crc.Write(rec.key)
	crc.Write(rec.value)
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc.Sum32())
	n := 0
	for _, b := range [][]byte{crcBuf[:], hdr[:i], rec.key, rec.value} {
		m, err := w.Write(b)
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// readRecord reads one record and returns it with its encoded size.
// io.EOF means a clean end of input; any other error (including a record
// cut short by EOF) marks a torn or corrupt record.
func readRecord(r *bufio.Reader) (record, int, error) {
	var crcBuf [4]byte
	if _, err := io.ReadFull(r, crcBuf[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			// A few stray bytes where a record should start: torn tail.
			return record{}, 0, io.ErrUnexpectedEOF
		}
		return record{}, 0, err
	}
	want := binary.LittleEndian.Uint32(crcBuf[:])
	crc := crc32.NewIEEE()
	flags, err := r.ReadByte()
	if err != nil {
		return record{}, 0, fmt.Errorf("read flags: %w", err)
	}
	crc.Write([]byte{flags})
	klen, err := readUvarintCRC(r, crc)
	if err != nil {
		return record{}, 0, fmt.Errorf("read klen: %w", err)
	}
	vlen, err := readUvarintCRC(r, crc)
	if err != nil {
		return record{}, 0, fmt.Errorf("read vlen: %w", err)
	}
	if klen > maxRecord || vlen > maxRecord {
		return record{}, 0, fmt.Errorf("%w: record too large (klen=%d vlen=%d)", errCorrupt, klen, vlen)
	}
	key := make([]byte, klen)
	if _, err := io.ReadFull(r, key); err != nil {
		return record{}, 0, fmt.Errorf("read key: %w", err)
	}
	crc.Write(key)
	value := make([]byte, vlen)
	if _, err := io.ReadFull(r, value); err != nil {
		return record{}, 0, fmt.Errorf("read value: %w", err)
	}
	crc.Write(value)
	if crc.Sum32() != want {
		return record{}, 0, fmt.Errorf("%w: crc mismatch", errCorrupt)
	}
	hdrLen := 1 + uvarintLen(klen) + uvarintLen(vlen)
	total := 4 + hdrLen + int(klen) + int(vlen)
	return record{tomb: flags&flagTomb != 0, key: key, value: value}, total, nil
}

// readUvarintCRC reads a uvarint byte-by-byte, feeding each byte to crc.
func readUvarintCRC(r *bufio.Reader, crc io.Writer) (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := r.ReadByte()
		if err != nil {
			return 0, err
		}
		crc.Write([]byte{b})
		if b < 0x80 {
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, fmt.Errorf("%w: uvarint overflows 64 bits", errCorrupt)
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Get implements engine.Engine.
func (s *Store) Get(key string) ([]byte, bool, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, ErrClosed
	}
	if e, ok := s.mem[key]; ok {
		defer s.mu.Unlock()
		if e.tomb {
			return nil, false, nil
		}
		out := make([]byte, len(e.value))
		copy(out, e.value)
		return out, true, nil
	}
	s.mu.Unlock()
	// Table reads run under tableMu's read lock rather than the writer
	// mutex, so cache misses hitting the disk never serialize the append
	// path; compaction retires files only under the write lock.
	s.tableMu.RLock()
	defer s.tableMu.RUnlock()
	for i := len(s.tables) - 1; i >= 0; i-- {
		t := s.tables[i]
		te, ok := t.index[key]
		if !ok {
			continue
		}
		if te.tomb {
			return nil, false, nil
		}
		v, err := s.readValue(t, te)
		if err != nil {
			return nil, false, err
		}
		return v, true, nil
	}
	return nil, false, nil
}

// readValue fetches one table value through the block cache. The
// returned slice is always a private copy.
func (s *Store) readValue(t *sstable, te tableEntry) ([]byte, error) {
	if s.cache != nil {
		if v, ok := s.cache.get(t, te.offset); ok {
			s.cacheHits.Add(1)
			out := make([]byte, len(v))
			copy(out, v)
			return out, nil
		}
		s.cacheMiss.Add(1)
	}
	v := make([]byte, te.length)
	if _, err := t.f.ReadAt(v, te.offset); err != nil {
		return nil, fmt.Errorf("ldb: read table %s: %w", t.path, err)
	}
	if s.cache != nil {
		s.cache.put(t, te.offset, v)
		out := make([]byte, len(v))
		copy(out, v)
		return out, nil
	}
	return v, nil
}

// Put implements engine.Engine: the memtable keeps value itself.
func (s *Store) Put(key string, value []byte) error {
	return s.write(record{key: []byte(key), value: value})
}

// Delete implements engine.Engine.
func (s *Store) Delete(key string) error {
	return s.write(record{key: []byte(key), tomb: true})
}

func (s *Store) write(rec record) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	n, err := writeRecord(s.walBuf, rec)
	if err == nil {
		err = s.walBuf.Flush()
	}
	if err != nil {
		// The record may be torn on disk: truncate back to the last
		// clean boundary and reopen, so the log stays parseable and the
		// caller can retry.
		s.repairWALLocked()
		return fmt.Errorf("ldb: wal append: %w", err)
	}
	s.walOff += int64(n)
	s.st.walBytes += int64(n)
	s.walSeq++
	seq := s.walSeq
	// Apply to the memtable before any durability wait. A writer parked
	// for the group fsync releases s.mu, so a flush can run underneath it;
	// the flush rotates the WAL away and releases parked writers as
	// durable, which is only true if the flushed table carried their
	// records — i.e. if every appended record is already in the memtable.
	if rec.tomb {
		s.mem[string(rec.key)] = entry{tomb: true}
	} else {
		s.mem[string(rec.key)] = entry{value: rec.value}
	}
	if s.opts.SyncWrites {
		if s.opts.SyncInterval > 0 {
			if err := s.waitGroupSyncLocked(seq); err != nil {
				return err
			}
		} else {
			if err := s.wal.Sync(); err != nil {
				return fmt.Errorf("ldb: wal sync: %w", err)
			}
			s.st.fsyncs++
			s.syncedSeq = seq
		}
	}
	if s.closed {
		// Closed while parked for the group fsync; the record is durable
		// (Close syncs before setting the flag) and already applied.
		return nil
	}
	if len(s.mem) >= s.opts.FlushThreshold {
		if err := s.flushLocked(); err != nil {
			return err
		}
		if len(s.tables) > s.opts.MaxTables {
			s.kickCompactLocked()
		}
	}
	if s.compactErr != nil {
		err := s.compactErr
		s.compactErr = nil
		return err
	}
	return nil
}

// waitGroupSyncLocked parks the writer of record seq until a group fsync
// (or a WAL rotation into an fsynced table) covers it. Called with s.mu
// held; the condition variable releases the lock while parked, so other
// writers keep appending into the same group.
func (s *Store) waitGroupSyncLocked(seq int64) error {
	for s.syncedSeq < seq && s.syncErr == nil && !s.closed {
		s.syncCond.Wait()
	}
	if s.syncedSeq < seq && s.syncErr != nil {
		return fmt.Errorf("ldb: group wal sync: %w", s.syncErr)
	}
	return nil
}

// syncLoop is the group-commit daemon: one fsync per SyncInterval covers
// every record appended since the last one. The fsync itself runs with
// s.mu released so writers keep appending; a WAL rotation during the
// fsync bumps walGen, in which case the result is discarded (rotation
// already made those records durable in an fsynced table).
func (s *Store) syncLoop() {
	defer close(s.syncDone)
	ticker := time.NewTicker(s.opts.SyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.syncStop:
			return
		case <-ticker.C:
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		if s.walSeq == s.syncedSeq {
			s.mu.Unlock()
			continue
		}
		gen, w, seq := s.walGen, s.wal, s.walSeq
		s.mu.Unlock()
		err := w.Sync()
		s.mu.Lock()
		if s.walGen == gen {
			if err != nil {
				s.syncErr = err
			} else {
				s.syncErr = nil
				if seq > s.syncedSeq {
					s.syncedSeq = seq
				}
				s.st.fsyncs++
			}
			s.syncCond.Broadcast()
		}
		s.mu.Unlock()
	}
}

// Flush forces the memtable to an SSTable and rotates the WAL.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.flushLocked()
}

func (s *Store) flushLocked() error {
	if len(s.mem) == 0 {
		return nil
	}
	keys := make([]string, 0, len(s.mem))
	for k := range s.mem {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	seq := s.nextSeq
	path := filepath.Join(s.dir, tableName(seq, seq))
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("ldb: create table: %w", err)
	}
	w := bufio.NewWriter(f)
	for _, k := range keys {
		e := s.mem[k]
		if _, err := writeRecord(w, record{tomb: e.tomb, key: []byte(k), value: e.value}); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("ldb: write table: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("ldb: flush table: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("ldb: sync table: %w", err)
	}
	s.st.fsyncs++
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ldb: close table: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("ldb: publish table: %w", err)
	}
	t, err := openTable(seq, seq, path)
	if err != nil {
		return err
	}
	s.tableMu.Lock()
	s.tables = append(s.tables, t)
	s.tableMu.Unlock()
	s.nextSeq++
	s.mem = make(map[string]entry)
	s.st.memtableFlushes++
	// Rotate the WAL: its contents are now durable in the fsynced table,
	// so every parked group-commit writer is released too.
	s.walBuf.Flush()
	s.wal.Close()
	if err := os.Remove(filepath.Join(s.dir, walName)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("ldb: remove wal: %w", err)
	}
	s.walOff = 0
	s.walGen++
	s.syncedSeq = s.walSeq
	s.syncErr = nil
	s.syncCond.Broadcast()
	return s.openWAL()
}

// kickCompactLocked schedules a background compaction if one is not
// already pending.
func (s *Store) kickCompactLocked() {
	select {
	case s.compactCh <- struct{}{}:
	default:
	}
}

// compactLoop runs merges scheduled by kickCompactLocked until Close.
func (s *Store) compactLoop() {
	defer close(s.compactDone)
	for {
		select {
		case <-s.compactStop:
			return
		case <-s.compactCh:
		}
		if err := s.compactOnce(); err != nil {
			s.mu.Lock()
			if s.compactErr == nil {
				s.compactErr = err
			}
			s.mu.Unlock()
		}
	}
}

// compactOnce merges every table present at its start into one,
// dropping overwritten versions and tombstones, under the byte-rate
// limit. The merge runs off the write lock: tables are immutable, new
// flushes only append, and merges are serialized by compactMu, so the
// captured prefix stays exactly the prefix of s.tables until the swap.
func (s *Store) compactOnce() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.tableMu.RLock()
	inputs := append([]*sstable(nil), s.tables...)
	s.tableMu.RUnlock()
	s.mu.Unlock()
	if len(inputs) <= 1 {
		return nil
	}

	// Newest version wins; tombstones drop the key entirely (there is
	// nothing below the oldest table for one to shadow).
	var ioBytes int64
	live := make(map[string][]byte)
	seen := make(map[string]bool) // keys already in order: a key deleted
	// from live by a tombstone and re-added by a later table must not be
	// appended twice, or the merged table carries duplicate records.
	var order []string
	for _, t := range inputs { // oldest first, so later tables overwrite
		if s.stopping() {
			return nil
		}
		for k, te := range t.index {
			if te.tomb {
				delete(live, k)
				continue
			}
			v := make([]byte, te.length)
			s.rate.wait(te.length)
			if _, err := t.f.ReadAt(v, te.offset); err != nil {
				return fmt.Errorf("ldb: compact read %s: %w", t.path, err)
			}
			ioBytes += int64(te.length)
			if !seen[k] {
				seen[k] = true
				order = append(order, k)
			}
			live[k] = v
		}
	}
	sort.Strings(order)
	lo, hi := inputs[0].lo, inputs[len(inputs)-1].hi
	path := filepath.Join(s.dir, tableName(lo, hi))
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("ldb: create merged table: %w", err)
	}
	w := bufio.NewWriter(f)
	for _, k := range order {
		v, ok := live[k]
		if !ok {
			continue // deleted by a newer tombstone
		}
		n, err := writeRecord(w, record{key: []byte(k), value: v})
		if err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("ldb: write merged table: %w", err)
		}
		ioBytes += int64(n)
		s.rate.wait(n)
		if s.stopping() {
			f.Close()
			os.Remove(tmp)
			return nil
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("ldb: flush merged table: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("ldb: sync merged table: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ldb: close merged table: %w", err)
	}
	// The rename is the commit point: reopening after a crash anywhere
	// past it sees the merged table superseding its inputs by range.
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("ldb: publish merged table: %w", err)
	}
	merged, err := openTable(lo, hi, path)
	if err != nil {
		return err
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		merged.f.Close()
		return nil
	}
	s.tableMu.Lock()
	s.tables = append([]*sstable{merged}, s.tables[len(inputs):]...)
	s.st.compactions++
	s.st.compactionBytes += ioBytes
	s.st.fsyncs++
	s.mu.Unlock()
	// Retire inputs under tableMu's write lock: no reader can still hold
	// an RLock taken against the old stack, so closing is safe.
	for _, t := range inputs {
		if s.cache != nil {
			s.cache.dropTable(t)
		}
		t.f.Close()
		if t.path != path { // the merged table may reuse an input's name
			os.Remove(t.path)
		}
	}
	s.tableMu.Unlock()
	return nil
}

func (s *Store) stopping() bool {
	select {
	case <-s.compactStop:
		return true
	default:
		return false
	}
}

// Compact flushes the memtable and merges all SSTables into one,
// dropping overwritten versions and tombstones. Unlike the background
// compaction it is synchronous.
func (s *Store) Compact() error {
	if err := s.Flush(); err != nil {
		return err
	}
	return s.compactOnce()
}

// WaitCompaction blocks until no background compaction is pending or
// running. Tests use it to observe a settled table stack.
func (s *Store) WaitCompaction() {
	// Acquiring compactMu after draining the signal channel means any
	// merge that was running or pending has finished.
	for {
		select {
		case <-s.compactCh:
			if err := s.compactOnce(); err != nil {
				s.mu.Lock()
				if s.compactErr == nil {
					s.compactErr = err
				}
				s.mu.Unlock()
			}
			continue
		default:
		}
		s.compactMu.Lock()
		s.compactMu.Unlock() //nolint:staticcheck // barrier acquire
		select {
		case <-s.compactCh:
			continue
		default:
			return
		}
	}
}

// Checkpoint implements engine.Checkpointer: it flushes the memtable,
// rotates the WAL and publishes the entire table stack into dir as hard
// links (copies when the filesystem refuses links). The checkpoint is a
// self-contained LDB directory — Open on it yields exactly the state at
// the moment of the call — and stays intact even after later compactions
// unlink the source files, because the links pin the inodes.
func (s *Store) Checkpoint(dir string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.flushLocked(); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("ldb: create checkpoint dir: %w", err)
	}
	// Clear any previous checkpoint content so stale tables cannot shadow
	// or resurrect state.
	old, err := filepath.Glob(filepath.Join(dir, sstPrefix+"*"+sstSuffix))
	if err != nil {
		return fmt.Errorf("ldb: scan checkpoint dir: %w", err)
	}
	for _, n := range old {
		if err := os.Remove(n); err != nil {
			return fmt.Errorf("ldb: clear checkpoint dir: %w", err)
		}
	}
	os.Remove(filepath.Join(dir, walName))
	s.tableMu.RLock()
	defer s.tableMu.RUnlock()
	for _, t := range s.tables {
		dst := filepath.Join(dir, filepath.Base(t.path))
		if err := linkOrCopy(t.path, dst); err != nil {
			return fmt.Errorf("ldb: checkpoint table %s: %w", t.path, err)
		}
	}
	return nil
}

// linkOrCopy hard-links src to dst, falling back to a full copy when the
// filesystem rejects links (e.g. across devices).
func linkOrCopy(src, dst string) error {
	if err := os.Link(src, dst); err == nil {
		return nil
	}
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// Len implements engine.Engine.
func (s *Store) Len() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	n := 0
	err := s.rangeLocked(func(string, []byte) bool { n++; return true })
	return n, err
}

// Range implements engine.Engine.
func (s *Store) Range(fn func(key string, value []byte) bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.rangeLocked(fn)
}

func (s *Store) rangeLocked(fn func(key string, value []byte) bool) error {
	seen := make(map[string]bool, len(s.mem))
	for k, e := range s.mem {
		seen[k] = true
		if e.tomb {
			continue
		}
		if !fn(k, e.value) {
			return nil
		}
	}
	s.tableMu.RLock()
	defer s.tableMu.RUnlock()
	for i := len(s.tables) - 1; i >= 0; i-- {
		t := s.tables[i]
		for k, te := range t.index {
			if seen[k] {
				continue
			}
			seen[k] = true
			if te.tomb {
				continue
			}
			v := make([]byte, te.length)
			if _, err := t.f.ReadAt(v, te.offset); err != nil {
				return fmt.Errorf("ldb: range read %s: %w", t.path, err)
			}
			if !fn(k, v) {
				return nil
			}
		}
	}
	return nil
}

// TableCount returns the number of on-disk SSTables, for tests and
// monitoring.
func (s *Store) TableCount() int {
	s.tableMu.RLock()
	defer s.tableMu.RUnlock()
	return len(s.tables)
}

// EngineStats implements engine.StatsReporter.
func (s *Store) EngineStats() engine.Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tableMu.RLock()
	defer s.tableMu.RUnlock()
	return engine.Stats{
		WALBytes:           s.st.walBytes,
		WALFsyncs:          s.st.fsyncs,
		MemtableFlushes:    s.st.memtableFlushes,
		Compactions:        s.st.compactions,
		CompactionBytes:    s.st.compactionBytes,
		BlockCacheHits:     s.cacheHits.Load(),
		BlockCacheMisses:   s.cacheMiss.Load(),
		RecoveryNanos:      s.st.recoveryNanos,
		ReplayedWALRecords: s.st.replayedRecords,
		TornWALTails:       s.st.tornTails,
		Tables:             int64(len(s.tables)),
	}
}

// Crash simulates a process death for crash-recovery tests: background
// goroutines are stopped and file handles dropped with no flush, fsync,
// or memtable rescue — the next Open sees exactly what a killed process
// would have left on disk. Unlike a real kill it does reclaim goroutines
// and descriptors, so tests can crash the same directory many times.
func (s *Store) Crash() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.syncedSeq = s.walSeq // release parked group-commit writers
	s.syncCond.Broadcast()
	s.mu.Unlock()
	close(s.syncStop)
	close(s.compactStop)
	<-s.syncDone
	<-s.compactDone
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wal.Close()
	s.tableMu.Lock()
	for _, t := range s.tables {
		t.f.Close()
	}
	s.tableMu.Unlock()
}

// Close implements engine.Engine. Buffered WAL bytes are pushed to the
// OS (and fsynced under SyncWrites) before the store is marked closed,
// so a clean shutdown followed by Open loses nothing and leaks no file
// handles.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	var first error
	if err := s.walBuf.Flush(); err != nil && first == nil {
		first = err
	}
	if s.opts.SyncWrites {
		if err := s.wal.Sync(); err != nil && first == nil {
			first = err
		}
		s.st.fsyncs++
	}
	// Release any writers parked on the group fsync: their records are
	// durable now.
	s.syncedSeq = s.walSeq
	s.closed = true
	s.syncCond.Broadcast()
	if s.compactErr != nil && first == nil {
		first = s.compactErr
	}
	s.mu.Unlock()

	close(s.syncStop)
	close(s.compactStop)
	<-s.syncDone
	<-s.compactDone

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.wal.Close(); err != nil && first == nil {
		first = err
	}
	s.tableMu.Lock()
	for _, t := range s.tables {
		if err := t.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.tableMu.Unlock()
	return first
}
