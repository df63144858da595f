package faultinject

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"

	"github.com/lsds/browserflow/internal/wal"
)

// ErrCrashed is returned by every filesystem operation after a simulated
// crash fires, until Crash() "reboots" the filesystem.
var ErrCrashed = errors.New("faultinject: simulated crash")

// MemFS is a deterministic in-memory filesystem with page-cache crash
// semantics, implementing wal.FS. It is the storage counterpart of the
// chaos RoundTripper:
//
//   - file contents are durable only up to the last Sync on the file;
//   - directory entries (creations, renames, removals) are durable only
//     after SyncDir on the parent directory;
//   - a crash can be scheduled at the Nth write or Nth fsync, optionally
//     applying a torn (partial) final write;
//   - Crash() simulates power loss + reboot: every file reverts to its
//     synced prefix plus a random prefix of the unsynced tail (the page
//     cache may have flushed some of it), optionally with a flipped bit in
//     the surviving unsynced region — exactly the corruption space a WAL
//     reader must tolerate.
//
// All randomness comes from the seed passed to NewMemFS, so failures are
// reproducible.
type MemFS struct {
	mu  sync.Mutex
	rng *rand.Rand

	files   map[string]*memFile // current (in-cache) directory view
	durable map[string]*memFile // directory view as of the last SyncDir
	dirs    map[string]bool

	writeOps     int
	syncOps      int
	crashAtWrite int // fire when writeOps reaches this value; 0 = disabled
	crashAtSync  int
	crashed      bool
	tornWrites   bool
	flipBitProb  float64

	// Disk-fault injection (distinct from crashes: the process survives,
	// the medium misbehaves). All injected errors wrap real syscall
	// errnos so errors.Is-based classification sees exactly what it
	// would on a real disk.
	eioBudget int64 // bytes still writable before EIO; -1 = disabled
	eioActive bool  // sticky: Write/Sync fail until ClearWriteError
	capacity  int64 // total byte budget across files; 0 = unlimited
	used      int64 // bytes currently held by files
	readOnly  bool  // mutating ops fail with EROFS
}

type memFile struct {
	data   []byte
	synced int // durable prefix length
}

// NewMemFS returns an empty MemFS with a deterministic random source.
func NewMemFS(seed int64) *MemFS {
	return &MemFS{
		rng:       rand.New(rand.NewSource(seed)),
		files:     make(map[string]*memFile),
		durable:   make(map[string]*memFile),
		dirs:      make(map[string]bool),
		eioBudget: -1,
	}
}

// FailWritesAfter arms an I/O-error injection: the next n bytes write
// normally, then every Write and Sync fails with an error wrapping
// syscall.EIO until ClearWriteError. n = 0 kills the very next write —
// a disk that died mid-flight. Negative disarms.
func (m *MemFS) FailWritesAfter(n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n < 0 {
		m.eioBudget = -1
		m.eioActive = false
		return
	}
	m.eioBudget = n
	m.eioActive = false
}

// ClearWriteError heals a fired (or armed) EIO injection — the medium
// works again, as after a controller reset or cable reseat.
func (m *MemFS) ClearWriteError() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.eioBudget = -1
	m.eioActive = false
}

// WriteErrorActive reports whether the EIO injection has fired and is
// still failing writes.
func (m *MemFS) WriteErrorActive() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.eioActive
}

// SetCapacity bounds the total bytes held across all files; writes that
// would exceed it fail with an error wrapping syscall.ENOSPC. Remove and
// Truncate free space, so pruning old checkpoints/segments genuinely
// recovers the disk. Zero removes the bound.
func (m *MemFS) SetCapacity(n int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.capacity = n
}

// Used returns the bytes currently held across all files.
func (m *MemFS) Used() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used
}

// SetReadOnly makes every mutating operation (writes, creates, renames,
// removals, truncations) fail with an error wrapping syscall.EROFS —
// the kernel having remounted the filesystem read-only after an error.
func (m *MemFS) SetReadOnly(v bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.readOnly = v
}

// injectErr builds the PathError for an injected fault; the wrapped
// errno survives errors.Is through the WAL's append/fsync wrapping.
func injectErr(op, path string, errno error) error {
	return &os.PathError{Op: op, Path: path, Err: errno}
}

// CrashAfterWrites schedules a crash to fire on the n-th Write from now
// (n >= 1). Zero cancels the schedule.
func (m *MemFS) CrashAfterWrites(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n <= 0 {
		m.crashAtWrite = 0
		return
	}
	m.crashAtWrite = m.writeOps + n
}

// CrashAfterSyncs schedules a crash to fire on the n-th Sync from now.
func (m *MemFS) CrashAfterSyncs(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n <= 0 {
		m.crashAtSync = 0
		return
	}
	m.crashAtSync = m.syncOps + n
}

// SetTornWrites makes the crashing write apply a random partial prefix
// instead of nothing (a torn sector write).
func (m *MemFS) SetTornWrites(v bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tornWrites = v
}

// SetBitFlipProb sets the probability that Crash flips one bit in the
// surviving unsynced region of each file (media scribbling garbage during
// power loss).
func (m *MemFS) SetBitFlipProb(p float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.flipBitProb = p
}

// Crashed reports whether a scheduled crash has fired.
func (m *MemFS) Crashed() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.crashed
}

// WriteOps returns the number of Write calls seen so far.
func (m *MemFS) WriteOps() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.writeOps
}

// Crash simulates power loss followed by reboot:
//
//   - the directory reverts to the last SyncDir view (unsynced creations
//     disappear, unsynced renames roll back, unsynced removals reappear);
//   - each surviving file keeps its synced prefix plus a random prefix of
//     the unsynced tail, possibly with one flipped bit in that tail;
//   - pending crash schedules are cleared and operations work again.
func (m *MemFS) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	files := make(map[string]*memFile, len(m.durable))
	for name, f := range m.durable {
		keep := f.synced
		if extra := len(f.data) - f.synced; extra > 0 {
			keep += m.rng.Intn(extra + 1)
		}
		data := append([]byte(nil), f.data[:keep]...)
		if keep > f.synced && m.flipBitProb > 0 && m.rng.Float64() < m.flipBitProb {
			i := f.synced + m.rng.Intn(keep-f.synced)
			data[i] ^= 1 << uint(m.rng.Intn(8))
		}
		nf := &memFile{data: data, synced: min(f.synced, len(data))}
		files[name] = nf
	}
	m.files = files
	// The post-reboot durable view is exactly what survived.
	m.durable = make(map[string]*memFile, len(files))
	m.used = 0
	for name, f := range files {
		m.durable[name] = f
		m.used += int64(len(f.data))
	}
	m.crashed = false
	m.crashAtWrite = 0
	m.crashAtSync = 0
}

// FlipByte XORs mask into the byte at offset of name — deliberate at-rest
// corruption for mid-log corruption tests. It bypasses crash scheduling.
func (m *MemFS) FlipByte(name string, offset int64, mask byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[filepath.Clean(name)]
	if !ok {
		return &os.PathError{Op: "flip", Path: name, Err: os.ErrNotExist}
	}
	if offset < 0 || offset >= int64(len(f.data)) {
		return fmt.Errorf("faultinject: flip offset %d out of range [0,%d)", offset, len(f.data))
	}
	f.data[offset] ^= mask
	return nil
}

// Size returns the current length of name.
func (m *MemFS) Size(name string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[filepath.Clean(name)]
	if !ok {
		return 0, &os.PathError{Op: "size", Path: name, Err: os.ErrNotExist}
	}
	return int64(len(f.data)), nil
}

// --- wal.FS implementation -------------------------------------------------

type memHandle struct {
	fs     *MemFS
	name   string
	file   *memFile
	closed bool
}

var _ wal.FS = (*MemFS)(nil)

// OpenFile implements wal.FS. Handles write sequentially from the current
// end of file (the only access pattern the durability layer uses);
// O_TRUNC resets the file.
func (m *MemFS) OpenFile(name string, flag int, _ os.FileMode) (wal.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	name = filepath.Clean(name)
	if m.readOnly {
		return nil, injectErr("open", name, syscall.EROFS)
	}
	f, ok := m.files[name]
	switch {
	case ok && flag&os.O_EXCL != 0:
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrExist}
	case !ok && flag&os.O_CREATE == 0:
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	case !ok:
		f = &memFile{}
		m.files[name] = f
	case flag&os.O_TRUNC != 0:
		m.used -= int64(len(f.data))
		f.data = nil
		f.synced = 0
	}
	return &memHandle{fs: m, name: name, file: f}, nil
}

// Write appends p, honouring the crash schedule: the crashing write
// applies nothing (or a torn prefix) and fails with ErrCrashed.
func (h *memHandle) Write(p []byte) (int, error) {
	m := h.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return 0, ErrCrashed
	}
	if h.closed {
		return 0, os.ErrClosed
	}
	m.writeOps++
	if m.crashAtWrite > 0 && m.writeOps >= m.crashAtWrite {
		m.crashed = true
		n := 0
		if m.tornWrites && len(p) > 0 {
			n = m.rng.Intn(len(p)) // strictly partial
			h.file.data = append(h.file.data, p[:n]...)
			m.used += int64(n)
		}
		return n, ErrCrashed
	}
	if m.readOnly {
		return 0, injectErr("write", h.name, syscall.EROFS)
	}
	if m.eioActive {
		return 0, injectErr("write", h.name, syscall.EIO)
	}
	if m.eioBudget >= 0 {
		if int64(len(p)) > m.eioBudget {
			// The disk dies mid-write: a strictly partial prefix lands.
			n := int(m.eioBudget)
			h.file.data = append(h.file.data, p[:n]...)
			m.used += int64(n)
			m.eioBudget = 0
			m.eioActive = true
			return n, injectErr("write", h.name, syscall.EIO)
		}
		m.eioBudget -= int64(len(p))
	}
	if m.capacity > 0 && m.used+int64(len(p)) > m.capacity {
		return 0, injectErr("write", h.name, syscall.ENOSPC)
	}
	h.file.data = append(h.file.data, p...)
	m.used += int64(len(p))
	return len(p), nil
}

// Sync marks the file's current length durable.
func (h *memHandle) Sync() error {
	m := h.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	if h.closed {
		return os.ErrClosed
	}
	m.syncOps++
	if m.crashAtSync > 0 && m.syncOps >= m.crashAtSync {
		m.crashed = true
		return ErrCrashed
	}
	if m.eioActive {
		return injectErr("fsync", h.name, syscall.EIO)
	}
	h.file.synced = len(h.file.data)
	return nil
}

// Close implements io.Closer (closing flushes nothing — that is Sync's
// job, exactly as with real files).
func (h *memHandle) Close() error {
	m := h.fs
	m.mu.Lock()
	defer m.mu.Unlock()
	if h.closed {
		return os.ErrClosed
	}
	h.closed = true
	return nil
}

// ReadFile implements wal.FS.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	f, ok := m.files[filepath.Clean(name)]
	if !ok {
		return nil, &os.PathError{Op: "read", Path: name, Err: os.ErrNotExist}
	}
	return append([]byte(nil), f.data...), nil
}

// ReadAt implements wal.FS with io.ReaderAt semantics: a read that runs
// past the end of the file returns the bytes that exist and io.EOF.
func (m *MemFS) ReadAt(name string, p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return 0, ErrCrashed
	}
	f, ok := m.files[filepath.Clean(name)]
	if !ok {
		return 0, &os.PathError{Op: "read", Path: name, Err: os.ErrNotExist}
	}
	if off < 0 {
		return 0, &os.PathError{Op: "read", Path: name, Err: os.ErrInvalid}
	}
	n := copy(p, f.data[min(off, int64(len(f.data))):])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Rename implements wal.FS. The new directory entry is durable only after
// SyncDir — until then a crash rolls the rename back.
func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	oldname, newname = filepath.Clean(oldname), filepath.Clean(newname)
	if m.readOnly {
		return injectErr("rename", oldname, syscall.EROFS)
	}
	f, ok := m.files[oldname]
	if !ok {
		return &os.PathError{Op: "rename", Path: oldname, Err: os.ErrNotExist}
	}
	delete(m.files, oldname)
	m.files[newname] = f
	return nil
}

// Remove implements wal.FS.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	name = filepath.Clean(name)
	if m.readOnly {
		return injectErr("remove", name, syscall.EROFS)
	}
	f, ok := m.files[name]
	if !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	m.used -= int64(len(f.data))
	delete(m.files, name)
	return nil
}

// Truncate implements wal.FS.
func (m *MemFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	if m.readOnly {
		return injectErr("truncate", name, syscall.EROFS)
	}
	f, ok := m.files[filepath.Clean(name)]
	if !ok {
		return &os.PathError{Op: "truncate", Path: name, Err: os.ErrNotExist}
	}
	if size < 0 || size > int64(len(f.data)) {
		return fmt.Errorf("faultinject: truncate size %d out of range [0,%d]", size, len(f.data))
	}
	m.used -= int64(len(f.data)) - size
	f.data = f.data[:size]
	if f.synced > int(size) {
		f.synced = int(size)
	}
	return nil
}

// ReadDirNames implements wal.FS: names of entries directly under dir.
func (m *MemFS) ReadDirNames(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return nil, ErrCrashed
	}
	dir = filepath.Clean(dir)
	seen := map[string]bool{}
	var names []string
	for name := range m.files {
		if filepath.Dir(name) == dir {
			base := filepath.Base(name)
			if !seen[base] {
				seen[base] = true
				names = append(names, base)
			}
		}
	}
	for d := range m.dirs {
		if filepath.Dir(d) == dir && d != dir {
			base := filepath.Base(d)
			if !seen[base] {
				seen[base] = true
				names = append(names, base)
			}
		}
	}
	sort.Strings(names)
	return names, nil
}

// MkdirAll implements wal.FS. Directories themselves are always durable
// (the interesting crash surface is files and entries).
func (m *MemFS) MkdirAll(dir string, _ os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	dir = filepath.Clean(dir)
	if m.readOnly {
		return injectErr("mkdir", dir, syscall.EROFS)
	}
	for dir != "/" && dir != "." && dir != "" {
		m.dirs[dir] = true
		dir = filepath.Dir(dir)
	}
	return nil
}

// SyncDir implements wal.FS: directory entries under dir (creations,
// renames, removals) become durable.
func (m *MemFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.crashed {
		return ErrCrashed
	}
	dir = filepath.Clean(dir)
	for name := range m.durable {
		if filepath.Dir(name) == dir {
			if _, ok := m.files[name]; !ok {
				delete(m.durable, name) // removal became durable
			}
		}
	}
	for name, f := range m.files {
		if filepath.Dir(name) == dir {
			m.durable[name] = f
		}
	}
	return nil
}
