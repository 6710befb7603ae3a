package oraclestore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

const (
	fileVersion = 1
	headerLen   = 8 + 4 + 4 + 32 // magic | version | numBlocks | key
)

var fileMagic = [8]byte{'T', 'S', 'O', 'R', 'A', 'C', 'L', '1'}

// cacheDeps is the store-level plumbing a SystemCache appends through: the
// filesystem seam, the retry and breaker policies, and the shared counters.
// Every field is optional (nil-safe), so direct-constructed caches in tests
// behave like the pre-fault-layer code.
type cacheDeps struct {
	fs            FS
	retry         RetryPolicy
	brk           *breaker
	fc            *faultCounters
	appendedBytes *atomic.Int64
}

func (d cacheDeps) withDefaults() cacheDeps {
	if d.fs == nil {
		d.fs = OSFS()
	}
	d.retry = d.retry.withDefaults()
	return d
}

func (d cacheDeps) allow() bool {
	return d.brk == nil || d.brk.Allow()
}

func (d cacheDeps) success() {
	if d.brk != nil {
		d.brk.Success()
	}
}

func (d cacheDeps) failure(err error) {
	if d.brk != nil {
		d.brk.Failure(err)
	}
}

func (d cacheDeps) countRetry() {
	if d.fc != nil {
		d.fc.retries.Add(1)
	}
}

func (d cacheDeps) countFailure() {
	if d.fc != nil {
		d.fc.failures.Add(1)
	}
}

func (d cacheDeps) countUnpersisted() {
	if d.fc != nil {
		d.fc.unpersisted.Add(1)
	}
}

// SystemCache is one system's on-disk memo table, fully mirrored in memory.
// Get/Put are safe for concurrent use; Put appends one self-checksummed
// record per distinct active set.
//
// A cache can run memory-only (memOnly): Get/Put work normally against the
// RAM mirror but nothing touches disk. A cache is born memory-only when the
// store's breaker was open (or the open failed) at System() time, and
// becomes memory-only permanently if a torn append cannot be healed — the
// one case where continuing to write would corrupt the file.
type SystemCache struct {
	path      string
	key       [32]byte
	numBlocks int
	deps      cacheDeps

	mu      sync.Mutex
	f       File
	mem     map[string][]float64
	evicted bool
	memOnly bool
	// pushedSize is the file size at the last successful remote push; the
	// file is dirty (PushRemote ships it) while it has grown past this.
	pushedSize int64

	hits, misses atomic.Int64
	appended     atomic.Int64
	lastUse      atomic.Int64 // unix nanos of the most recent open/Get/Put
	loaded       int
	dupes        int   // duplicate records deduped at load
	recovered    int64 // corrupt tail bytes truncated at load
}

// openSystemCache opens or creates the record file and loads every valid
// record, truncating any torn or corrupt tail.
func openSystemCache(path string, key [32]byte, numBlocks int, deps cacheDeps) (*SystemCache, error) {
	deps = deps.withDefaults()
	if err := deps.fs.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStore, err)
	}
	// A missing file is created *with its header* via temp-file + atomic
	// rename, so no handle can ever observe (or race to write) a partial
	// header: two creators each publish a complete file and the second
	// rename simply wins — the loser's handle appends to an unlinked inode,
	// losing its records but corrupting nothing.
	if _, err := deps.fs.Stat(path); os.IsNotExist(err) {
		if err := createWithHeader(deps.fs, path, key, numBlocks); err != nil {
			return nil, err
		}
	}
	// O_APPEND: every record write lands atomically at the true end of the
	// file, so a second handle on the same path (another Store in this or
	// another process) can at worst append duplicate records — deduped at
	// the next load — never overwrite bytes mid-record.
	f, err := deps.fs.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStore, err)
	}
	c := &SystemCache{
		path:      path,
		key:       key,
		numBlocks: numBlocks,
		deps:      deps,
		f:         f,
		mem:       make(map[string][]float64),
	}
	if err := c.load(); err != nil {
		f.Close()
		return nil, err
	}
	c.touch()
	return c, nil
}

// newMemOnlyCache builds a degraded cache that never touches disk: every
// answer is memoized in RAM only (counted as unpersisted) and lost on
// restart. Used when the store's breaker is open at System() time or the
// on-disk open failed.
func newMemOnlyCache(path string, key [32]byte, numBlocks int, deps cacheDeps) *SystemCache {
	c := &SystemCache{
		path:      path,
		key:       key,
		numBlocks: numBlocks,
		deps:      deps.withDefaults(),
		mem:       make(map[string][]float64),
		memOnly:   true,
	}
	c.touch()
	return c
}

// touch records an access for the store's LRU eviction clock. The in-process
// clock dominates filesystem timestamps (which noatime mounts freeze), so a
// system a live handle keeps answering from never looks cold.
func (c *SystemCache) touch() { c.lastUse.Store(time.Now().UnixNano()) }

// load reads the header and every record, resetting an invalid header and
// truncating at the first invalid record. On return the file offset sits at
// the end of the valid prefix with everything after it discarded, so appends
// resume from a consistent state.
func (c *SystemCache) load() error {
	st, err := c.f.Stat()
	if err != nil {
		return fmt.Errorf("%w: %v", ErrStore, err)
	}
	// Recovery truncates and rewrites the file, which refreshes its mtime —
	// and off Linux mtime is the *whole* LRU clock (atime_other.go), so a
	// healed-but-cold file would jump ahead of genuinely warm ones. Capture
	// the pre-heal stamp so every recovery path below can restore it;
	// best-effort, like the rest of the eviction clock.
	restoreTimes := func() {
		mt := st.ModTime()
		at := mt
		if a, ok := atime(st); ok {
			at = a
		}
		_ = c.deps.fs.Chtimes(c.path, at, mt)
	}
	if st.Size() < headerLen {
		// New file (or one that died before the header landed): start over.
		c.recovered += st.Size()
		if err := c.reset(); err != nil {
			return err
		}
		if st.Size() > 0 {
			restoreTimes()
		}
		return nil
	}
	r := bufio.NewReaderSize(io.NewSectionReader(c.f, 0, st.Size()), 1<<16)
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("%w: reading header: %v", ErrStore, err)
	}
	ok := string(hdr[:8]) == string(fileMagic[:]) &&
		binary.LittleEndian.Uint32(hdr[8:12]) == fileVersion &&
		int(binary.LittleEndian.Uint32(hdr[12:16])) == c.numBlocks &&
		string(hdr[16:48]) == string(c.key[:])
	if !ok {
		// Wrong magic/version/shape/key: the cache is derived data, so the
		// safe recovery is to discard it rather than answer for the wrong
		// system.
		c.recovered += st.Size()
		if err := c.reset(); err != nil {
			return err
		}
		restoreTimes()
		return nil
	}

	good := int64(headerLen)
	recBuf := make([]byte, 4+4*c.numBlocks+8*c.numBlocks+4) // worst-case record
	for {
		rec, n, err := readRecord(r, recBuf, c.numBlocks)
		if err != nil {
			// io.EOF: clean end. Anything else — short tail, CRC mismatch,
			// non-canonical cores — is a torn or corrupt append: truncate it.
			if err != io.EOF {
				c.recovered += st.Size() - good
				if err := c.f.Truncate(good); err != nil {
					return fmt.Errorf("%w: truncating corrupt tail: %v", ErrStore, err)
				}
				restoreTimes()
			}
			break
		}
		if _, ok := c.mem[rec.key]; ok {
			// Racing handles can append the same answer twice (see the
			// package doc); count the dedup so tests can assert a
			// single-writer run produced none.
			c.dupes++
		}
		c.mem[rec.key] = rec.temps
		good += int64(n)
	}
	c.loaded = len(c.mem)
	if _, err := c.f.Seek(good, io.SeekStart); err != nil {
		return fmt.Errorf("%w: %v", ErrStore, err)
	}
	return nil
}

// headerBytes renders the fixed file header.
func headerBytes(key [32]byte, numBlocks int) []byte {
	var hdr [headerLen]byte
	copy(hdr[:8], fileMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], fileVersion)
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(numBlocks))
	copy(hdr[16:48], key[:])
	return hdr[:]
}

// createWithHeader publishes a fresh record file atomically: header written
// to a temp file in the same directory, fsynced, then renamed into place.
func createWithHeader(fsys FS, path string, key [32]byte, numBlocks int) error {
	return createWithRawHeader(fsys, path, headerBytes(key, numBlocks))
}

// reset truncates the file to zero and writes a fresh header.
func (c *SystemCache) reset() error {
	if err := c.f.Truncate(0); err != nil {
		return fmt.Errorf("%w: %v", ErrStore, err)
	}
	if _, err := c.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("%w: %v", ErrStore, err)
	}
	if _, err := c.f.Write(headerBytes(c.key, c.numBlocks)); err != nil {
		return fmt.Errorf("%w: writing header: %v", ErrStore, err)
	}
	return nil
}

type record struct {
	key   string
	temps []float64
}

// readRecord decodes one record, returning its consumed length. Any
// malformation yields a non-EOF error; a clean end-of-file yields io.EOF.
func readRecord(r *bufio.Reader, scratch []byte, numBlocks int) (record, int, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if err == io.EOF {
			return record{}, 0, io.EOF
		}
		return record{}, 0, fmt.Errorf("short record length: %w", err)
	}
	nActive := int(binary.LittleEndian.Uint32(lenBuf[:]))
	if nActive < 1 || nActive > numBlocks {
		return record{}, 0, fmt.Errorf("implausible active count %d", nActive)
	}
	need := 4 + 4*nActive + 8*numBlocks + 4
	var buf []byte
	if cap(scratch) >= need {
		buf = scratch[:need]
	} else {
		buf = make([]byte, need)
	}
	copy(buf, lenBuf[:])
	if _, err := io.ReadFull(r, buf[4:]); err != nil {
		return record{}, 0, fmt.Errorf("short record body: %w", err)
	}
	body := buf[:len(buf)-4]
	wantCRC := binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.ChecksumIEEE(body) != wantCRC {
		return record{}, 0, fmt.Errorf("record CRC mismatch")
	}
	prev := -1
	for i := 0; i < nActive; i++ {
		cv := int(binary.LittleEndian.Uint32(body[4+4*i:]))
		if cv <= prev || cv >= numBlocks {
			return record{}, 0, fmt.Errorf("non-canonical core list")
		}
		prev = cv
	}
	temps := make([]float64, numBlocks)
	toff := 4 + 4*nActive
	for i := range temps {
		temps[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[toff+8*i:]))
	}
	return record{key: string(body[4 : 4+4*nActive]), temps: temps}, len(buf), nil
}

// memKey canonicalises an active set into the sorted little-endian byte key
// used by both the in-memory map and the record encoding. Empty sets are
// rejected: the record format reserves nActive >= 1 (a zero count reads as a
// corrupt record on load), and an all-idle "session" is not a simulation
// worth persisting.
func memKey(active []int, numBlocks int) (string, []int, error) {
	if len(active) == 0 {
		return "", nil, fmt.Errorf("%w: empty active set", ErrStore)
	}
	sorted := append([]int(nil), active...)
	sort.Ints(sorted)
	buf := make([]byte, 4*len(sorted))
	prev := -1
	for i, cv := range sorted {
		if cv == prev {
			// The oracle layer never passes duplicates; reject rather than
			// silently write a non-canonical record.
			return "", nil, fmt.Errorf("%w: duplicate core %d in active set", ErrStore, cv)
		}
		if cv < 0 || cv >= numBlocks {
			return "", nil, fmt.Errorf("%w: core %d outside [0,%d)", ErrStore, cv, numBlocks)
		}
		prev = cv
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(cv))
	}
	return string(buf), sorted, nil
}

// Get returns the stored temperatures for an active set, or false. The slice
// is a fresh copy.
func (c *SystemCache) Get(active []int) ([]float64, bool) {
	key, _, err := memKey(active, c.numBlocks)
	if err != nil {
		return nil, false
	}
	c.mu.Lock()
	temps, ok := c.mem[key]
	c.mu.Unlock()
	c.touch()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	out := make([]float64, len(temps))
	copy(out, temps)
	return out, true
}

// Put persists one answer. Re-putting a known set is a no-op; temps must
// have one entry per block. The append is a single write on an O_APPEND
// descriptor (atomically positioned at EOF by the kernel), guarded by the
// cache's lock; a failed write is retried under the cache's RetryPolicy with
// any torn tail truncated away first, so retries never land after garbage.
//
// Put degrades instead of failing: the answer is always memoized in RAM
// before the disk is touched, and a disk failure (after retries) feeds the
// store's breaker and counters but returns nil — the caller's simulation
// result is correct either way, and the record answers warm for the rest of
// this process's life. Only an evicted or closed cache still returns an
// error, because there the caller's expectation (a live persistent tier) is
// gone for good.
func (c *SystemCache) Put(active []int, temps []float64) error {
	if len(temps) != c.numBlocks {
		return fmt.Errorf("%w: %d temps for %d blocks", ErrStore, len(temps), c.numBlocks)
	}
	key, sorted, err := memKey(active, c.numBlocks)
	if err != nil {
		return err
	}
	c.touch()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil && !c.memOnly {
		if c.evicted {
			return fmt.Errorf("%w: cache was evicted", ErrStore)
		}
		return fmt.Errorf("%w: cache is closed", ErrStore)
	}
	if _, ok := c.mem[key]; ok {
		return nil
	}
	kept := make([]float64, len(temps))
	copy(kept, temps)
	c.mem[key] = kept

	if c.memOnly {
		c.deps.countUnpersisted()
		return nil
	}
	if !c.deps.allow() {
		// Breaker open: skip the disk without burning retries on it.
		c.deps.countUnpersisted()
		return nil
	}
	buf := make([]byte, 0, 4+4*len(sorted)+8*len(temps)+4)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(sorted)))
	for _, cv := range sorted {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(cv))
	}
	for _, t := range temps {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(t))
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	if err := c.appendLocked(buf); err != nil {
		c.deps.failure(err)
		c.deps.countFailure()
		c.deps.countUnpersisted()
		return nil
	}
	c.deps.success()
	c.appended.Add(1)
	if c.deps.appendedBytes != nil {
		c.deps.appendedBytes.Add(int64(len(buf)))
	}
	return nil
}

// appendLocked writes one encoded record with retries and torn-tail healing
// (see appendWithHeal) — legal because this handle is the only in-process
// writer (the cache lock is held) and O_APPEND positioned the write at EOF.
// An unhealable torn tail retires the file handle: the cache flips to
// memory-only for the rest of its life rather than appending records a
// future load would discard.
func (c *SystemCache) appendLocked(buf []byte) error {
	// An append that ultimately fails may still have healed torn bytes
	// (truncate + rewrite), refreshing mtime without persisting anything.
	// Capture the pre-append stamp so that case restores the LRU clock — a
	// *successful* append is a genuine use and keeps its fresh mtime.
	var preM, preA time.Time
	havePre := false
	if st, err := c.f.Stat(); err == nil {
		preM = st.ModTime()
		preA = preM
		if a, ok := atime(st); ok {
			preA = a
		}
		havePre = true
	}
	retired, err := appendWithHeal(c.f, c.deps.retry, c.deps.countRetry, buf)
	if retired {
		c.f.Close()
		c.f = nil
		c.memOnly = true
	}
	if err != nil && havePre {
		_ = c.deps.fs.Chtimes(c.path, preA, preM)
	}
	return err
}

// Len returns the number of cached answers (loaded + appended).
func (c *SystemCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}

// Loaded returns how many records the opening load recovered from disk — the
// warm-start count.
func (c *SystemCache) Loaded() int { return c.loaded }

// Duplicates returns how many records the opening load discarded because an
// earlier record already carried the same active set. A single-writer history
// produces zero; racing handles (see the package doc) can produce more.
func (c *SystemCache) Duplicates() int { return c.dupes }

// Appended returns how many records this handle has written to disk.
func (c *SystemCache) Appended() int64 { return c.appended.Load() }

// Recovered returns how many corrupt or torn bytes were discarded at load.
func (c *SystemCache) Recovered() int64 { return c.recovered }

// LastUse returns the time of the most recent open, Get or Put through this
// handle — the in-process half of the store's LRU clock.
func (c *SystemCache) LastUse() time.Time {
	return time.Unix(0, c.lastUse.Load())
}

// Key returns the system's content address.
func (c *SystemCache) Key() [32]byte { return c.key }

// SizeBytes returns the record file's current size, 0 once evicted.
func (c *SystemCache) SizeBytes() int64 {
	st, err := c.deps.withDefaults().fs.Stat(c.path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// Evicted reports whether Evict removed this system's file.
func (c *SystemCache) Evicted() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicted
}

// MemOnly reports whether the cache is running degraded (RAM mirror only,
// nothing persisted) — born that way under an open breaker, or flipped by an
// unhealable torn append.
func (c *SystemCache) MemOnly() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.memOnly
}

// Evict closes the record file, deletes it from disk and drops the in-memory
// mirror, reclaiming both the disk budget and the heap. The handle stays
// valid but cold: Get misses (so an oracle above re-simulates — correctly,
// the cache held only derived data) and Put reports an error, which the
// store-oracle layer already treats as a non-fatal spill failure. Opening the
// system again through a Store creates a fresh file.
func (c *SystemCache) Evict() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.evicted {
		return nil
	}
	c.evicted = true
	c.memOnly = false
	var err error
	if c.f != nil {
		err = c.f.Close()
		c.f = nil
	}
	if rerr := c.deps.withDefaults().fs.Remove(c.path); rerr != nil && !os.IsNotExist(rerr) && err == nil {
		err = rerr
	}
	c.mem = make(map[string][]float64)
	if err != nil {
		return fmt.Errorf("%w: evicting %s: %v", ErrStore, c.path, err)
	}
	return nil
}

// dirtyFileBytes snapshots the record file for a remote push when it has
// grown since the last successful push. Reading happens under the cache lock,
// so no append can interleave; a memory-only or evicted cache has nothing a
// remote could serve and reports clean.
func (c *SystemCache) dirtyFileBytes() (data []byte, size int64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil || c.memOnly || c.evicted {
		return nil, 0, false
	}
	st, err := c.f.Stat()
	if err != nil || st.Size() <= c.pushedSize {
		return nil, 0, false
	}
	buf := make([]byte, st.Size())
	if _, err := c.f.ReadAt(buf, 0); err != nil {
		return nil, 0, false
	}
	return buf, st.Size(), true
}

// setPushedSize records a successful remote push of the file at size bytes.
func (c *SystemCache) setPushedSize(size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.pushedSize {
		c.pushedSize = size
	}
}

// Stats returns the store-tier (hits, misses) counters: hits answered from
// disk-backed memory, misses that fell through to the inner oracle.
func (c *SystemCache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Path returns the record file path.
func (c *SystemCache) Path() string { return c.path }

// Sync flushes appended records to stable storage.
func (c *SystemCache) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	if err := c.f.Sync(); err != nil {
		return fmt.Errorf("%w: %v", ErrStore, err)
	}
	return nil
}

// close syncs and closes the record file. Get keeps answering from memory;
// Put starts failing.
func (c *SystemCache) close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.f == nil {
		return nil
	}
	err := c.f.Sync()
	if cerr := c.f.Close(); err == nil {
		err = cerr
	}
	c.f = nil
	if err != nil {
		return fmt.Errorf("%w: %v", ErrStore, err)
	}
	return nil
}

// storeOracle is the tier-2 oracle: answer from the SystemCache, otherwise
// query the inner oracle and persist its answer. Persist failures are
// deliberately non-fatal — the simulation result is correct whether or not
// the spill landed, and a read-only cache directory should degrade a run,
// not kill it.
type storeOracle struct {
	cache *SystemCache
	inner core.Oracle
}

// Wrap layers the cache over an existing oracle. Over a core.LazyOracle, a
// fully warm run never pays the inner oracle's construction — for grid
// oracles that is the sparse factorization.
func (c *SystemCache) Wrap(inner core.Oracle) core.Oracle {
	return &storeOracle{cache: c, inner: inner}
}

// BlockTemps implements core.Oracle.
func (o *storeOracle) BlockTemps(active []int) ([]float64, error) {
	if temps, ok := o.cache.Get(active); ok {
		return temps, nil
	}
	temps, err := o.inner.BlockTemps(active)
	if err != nil {
		return nil, err
	}
	_ = o.cache.Put(active, temps)
	return temps, nil
}

// BlockTempsBatch implements core.BatchOracle: store misses are forwarded to
// the inner oracle as one batch (one blocked multi-RHS solve on a grid
// oracle) and each answer is persisted, so the hit/miss counters and the
// records on disk come out exactly as if the sessions had been queried one at
// a time.
func (o *storeOracle) BlockTempsBatch(sessions [][]int) ([][]float64, error) {
	out := make([][]float64, len(sessions))
	var missIdx []int
	for i, s := range sessions {
		if temps, ok := o.cache.Get(s); ok {
			out[i] = temps
		} else {
			missIdx = append(missIdx, i)
		}
	}
	if len(missIdx) == 0 {
		return out, nil
	}
	miss := make([][]int, len(missIdx))
	for k, i := range missIdx {
		miss[k] = sessions[i]
	}
	var res [][]float64
	if b, ok := o.inner.(core.BatchOracle); ok {
		r, err := b.BlockTempsBatch(miss)
		if err != nil {
			return nil, err
		}
		res = r
	} else {
		res = make([][]float64, len(miss))
		for k, s := range miss {
			temps, err := o.inner.BlockTemps(s)
			if err != nil {
				return nil, err
			}
			res[k] = temps
		}
	}
	for k, i := range missIdx {
		out[i] = res[k]
		_ = o.cache.Put(sessions[i], res[k])
	}
	return out, nil
}

var _ core.BatchOracle = (*storeOracle)(nil)
