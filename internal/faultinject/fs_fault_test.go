package faultinject

import (
	"errors"
	"io"
	"os"
	"syscall"
	"testing"
)

func writeN(t *testing.T, f interface{ Write([]byte) (int, error) }, n int) {
	t.Helper()
	if _, err := f.Write(make([]byte, n)); err != nil {
		t.Fatalf("write %d bytes: %v", n, err)
	}
}

func TestFailWritesAfterEIO(t *testing.T) {
	m := NewMemFS(1)
	f, err := m.OpenFile("/d/a", os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	m.FailWritesAfter(10)
	writeN(t, f, 6) // 6 of 10 spent

	n, err := f.Write(make([]byte, 8)) // 4 left: partial write then EIO
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("err = %v, want EIO", err)
	}
	if n != 4 {
		t.Fatalf("partial write landed %d bytes, want 4", n)
	}
	if sz, _ := m.Size("/d/a"); sz != 10 {
		t.Fatalf("file size %d, want 10", sz)
	}
	if !m.WriteErrorActive() {
		t.Fatal("EIO injection did not latch")
	}

	// Sticky: later writes and syncs keep failing.
	if _, err := f.Write([]byte("x")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("post-fault write err = %v, want EIO", err)
	}
	if err := f.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("post-fault sync err = %v, want EIO", err)
	}

	m.ClearWriteError()
	writeN(t, f, 3)
	if err := f.Sync(); err != nil {
		t.Fatalf("sync after heal: %v", err)
	}
}

func TestCapacityENOSPCAndPruneRecovery(t *testing.T) {
	m := NewMemFS(1)
	m.SetCapacity(100)
	a, err := m.OpenFile("/d/a", os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	writeN(t, a, 80)

	b, err := m.OpenFile("/d/b", os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write(make([]byte, 30)); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("over-capacity write err = %v, want ENOSPC", err)
	}
	if got := m.Used(); got != 80 {
		t.Fatalf("Used = %d after failed write, want 80", got)
	}

	// Freeing space (pruning an obsolete file) genuinely recovers.
	if err := m.Remove("/d/a"); err != nil {
		t.Fatal(err)
	}
	writeN(t, b, 30)
	if got := m.Used(); got != 30 {
		t.Fatalf("Used = %d, want 30", got)
	}

	// Truncate frees too.
	if err := m.Truncate("/d/b", 5); err != nil {
		t.Fatal(err)
	}
	if got := m.Used(); got != 5 {
		t.Fatalf("Used after truncate = %d, want 5", got)
	}
	writeN(t, b, 90)
}

func TestReadOnlyEROFS(t *testing.T) {
	m := NewMemFS(1)
	f, err := m.OpenFile("/d/a", os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	writeN(t, f, 4)
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	m.SetReadOnly(true)

	if _, err := m.OpenFile("/d/b", os.O_CREATE, 0o644); !errors.Is(err, syscall.EROFS) {
		t.Fatalf("open err = %v, want EROFS", err)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, syscall.EROFS) {
		t.Fatalf("write err = %v, want EROFS", err)
	}
	if err := m.Rename("/d/a", "/d/c"); !errors.Is(err, syscall.EROFS) {
		t.Fatalf("rename err = %v, want EROFS", err)
	}
	if err := m.Remove("/d/a"); !errors.Is(err, syscall.EROFS) {
		t.Fatalf("remove err = %v, want EROFS", err)
	}
	if err := m.Truncate("/d/a", 0); !errors.Is(err, syscall.EROFS) {
		t.Fatalf("truncate err = %v, want EROFS", err)
	}
	if err := m.MkdirAll("/d/sub", 0o755); !errors.Is(err, syscall.EROFS) {
		t.Fatalf("mkdir err = %v, want EROFS", err)
	}

	// Reads keep working on a read-only filesystem.
	if data, err := m.ReadFile("/d/a"); err != nil || len(data) != 4 {
		t.Fatalf("read on ro fs: %v (len %d)", err, len(data))
	}

	m.SetReadOnly(false)
	writeN(t, f, 1)
}

// ReadAt follows io.ReaderAt: a read that runs past the end returns the
// bytes that exist and io.EOF, and a crashed filesystem refuses reads.
func TestMemFSReadAt(t *testing.T) {
	m := NewMemFS(1)
	f, err := m.OpenFile("/d/a", os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		off  int64
		size int
		want string
		eof  bool
	}{
		{off: 2, size: 3, want: "234"},
		{off: 0, size: 10, want: "0123456789"},
		{off: 7, size: 5, want: "789", eof: true},
		{off: 10, size: 1, want: "", eof: true},
		{off: 12, size: 1, want: "", eof: true},
		{off: 12, size: 0, want: ""},
	} {
		p := make([]byte, tc.size)
		n, err := m.ReadAt("/d/a", p, tc.off)
		if string(p[:n]) != tc.want || (err == io.EOF) != tc.eof || (err != nil && err != io.EOF) {
			t.Errorf("ReadAt(off %d, %d bytes) = %q, %v; want %q, eof=%v", tc.off, tc.size, p[:n], err, tc.want, tc.eof)
		}
	}
	if _, err := m.ReadAt("/d/missing", make([]byte, 1), 0); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("ReadAt(missing) err = %v, want ErrNotExist", err)
	}
	if _, err := m.ReadAt("/d/a", make([]byte, 1), -1); err == nil {
		t.Error("ReadAt(negative offset) succeeded")
	}
	m.CrashAfterWrites(1)
	f.Write([]byte("x")) //nolint:errcheck // fires the crash
	if _, err := m.ReadAt("/d/a", make([]byte, 1), 0); !errors.Is(err, ErrCrashed) {
		t.Errorf("ReadAt after crash err = %v, want ErrCrashed", err)
	}
}
