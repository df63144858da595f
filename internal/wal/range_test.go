package wal_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/lsds/browserflow/internal/faultinject"
	"github.com/lsds/browserflow/internal/wal"
)

// rangeDisk is a filesystem under test plus a way to decay one of its
// bytes at rest.
type rangeDisk struct {
	name string
	dir  string
	fs   wal.FS
	flip func(t *testing.T, path string, off int64)
}

func rangeDisks(t *testing.T) []rangeDisk {
	mem := faultinject.NewMemFS(1)
	return []rangeDisk{
		{
			name: "MemFS", dir: "/wal", fs: mem,
			flip: func(t *testing.T, path string, off int64) {
				t.Helper()
				if err := mem.FlipByte(path, off, 0x41); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "OSFS", dir: t.TempDir(), fs: wal.OSFS{},
			flip: func(t *testing.T, path string, off int64) {
				t.Helper()
				f, err := os.OpenFile(path, os.O_RDWR, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				b := []byte{0}
				if _, err := f.ReadAt(b, off); err != nil {
					t.Fatal(err)
				}
				b[0] ^= 0x41
				if _, err := f.WriteAt(b, off); err != nil {
					t.Fatal(err)
				}
			},
		},
	}
}

// A bounded read window that cuts a frame — anywhere in its header or
// body — ends the batch; it is not corruption. Every maxBytes in
// [1, 3×frame] puts the window edge at every byte of a frame, and the
// streamed bytes must still mirror the disk exactly. A bit flip inside
// the served range must still come back as *CorruptError at the
// offset of the damaged frame.
func TestReadFromWindowEdgeNotCorrupt(t *testing.T) {
	payloadSets := map[string][]int{
		"empty":   {0, 0, 0, 0, 0, 0, 0},
		"tiny":    {1, 1, 1, 1, 1, 1, 1},
		"small":   {8, 8, 8, 8, 8, 8, 8},
		"medium":  {33, 33, 33, 33, 33, 33, 33},
		"mixed":   {0, 33, 1, 8, 100, 2, 57},
		"onebig":  {3, 3, 250, 3, 3, 3, 3},
		"twobigs": {120, 120, 4, 4, 120, 4, 4},
	}
	for _, disk := range rangeDisks(t) {
		for name, payloads := range payloadSets {
			t.Run(disk.name+"/"+name, func(t *testing.T) {
				checkWindowEdges(t, disk, name, payloads)
			})
		}
	}
}

func checkWindowEdges(t *testing.T, disk rangeDisk, name string, payloads []int) {
	dir := filepath.Join(disk.dir, name)
	maxFrame, firstFour := 0, 0
	for i, n := range payloads {
		maxFrame = max(maxFrame, wal.FrameOverhead+n)
		if i < 4 {
			firstFour += wal.FrameOverhead + n
		}
	}
	// Four records fill the first segment: the log spans two.
	l, err := wal.Open(wal.Options{
		Dir: dir, FS: disk.fs, Policy: wal.SyncNone,
		SegmentBytes: int64(wal.HeaderSize + firstFour),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var (
		sizes  []int     // frame size of each record, in append order
		starts []wal.Pos // position of each record
	)
	for i, n := range payloads {
		data := bytes.Repeat([]byte{byte('a' + i)}, n)
		if err := l.Append(wal.Record{Type: byte(i), Data: data}); err != nil {
			t.Fatal(err)
		}
		end := l.End()
		sizes = append(sizes, wal.FrameOverhead+n)
		starts = append(starts, wal.Pos{Segment: end.Segment, Offset: end.Offset - int64(wal.FrameOverhead+n)})
	}
	if starts[0].Segment == starts[len(starts)-1].Segment {
		t.Fatalf("log did not rotate; the case must span segments")
	}

	for maxBytes := 1; maxBytes <= 3*maxFrame; maxBytes++ {
		perSeg := map[uint64]*bytes.Buffer{}
		pos, consumed := wal.Pos{}, 0
		for {
			frames, n, start, next, err := l.ReadFrom(pos, maxBytes)
			if err != nil {
				t.Fatalf("maxBytes=%d: ReadFrom(%v): %v", maxBytes, pos, err)
			}
			if n == 0 {
				break
			}
			if start != starts[consumed] {
				t.Fatalf("maxBytes=%d: batch starts at %v, want record %d at %v", maxBytes, start, consumed, starts[consumed])
			}
			want := 0
			for _, sz := range sizes[consumed : consumed+n] {
				want += sz
			}
			if len(frames) != want {
				t.Fatalf("maxBytes=%d: %d records in %d bytes, want %d bytes", maxBytes, n, len(frames), want)
			}
			if n > 1 && len(frames) > maxBytes {
				t.Fatalf("maxBytes=%d: %d-record batch of %d bytes exceeds the bound", maxBytes, n, len(frames))
			}
			// Batches are maximal: a following frame in the same segment
			// did not fit under the bound.
			if k := consumed + n; k < len(starts) && starts[k].Segment == start.Segment && len(frames)+sizes[k] <= maxBytes {
				t.Fatalf("maxBytes=%d: batch at %v stopped before record %d, which fits", maxBytes, start, k)
			}
			buf := perSeg[start.Segment]
			if buf == nil {
				buf = &bytes.Buffer{}
				perSeg[start.Segment] = buf
			}
			buf.Write(frames)
			consumed += n
			left, err := l.CountFrom(next)
			if err != nil || left != int64(len(payloads)-consumed) {
				t.Fatalf("maxBytes=%d: CountFrom(%v) = %d, %v; want %d", maxBytes, next, left, err, len(payloads)-consumed)
			}
			pos = next
		}
		if consumed != len(payloads) {
			t.Fatalf("maxBytes=%d: streamed %d records, want %d", maxBytes, consumed, len(payloads))
		}
		for seg, buf := range perSeg {
			onDisk, err := disk.fs.ReadFile(filepath.Join(dir, wal.SegmentName(seg)))
			if err != nil {
				t.Fatal(err)
			}
			if got := append(wal.SegmentHeader(seg), buf.Bytes()...); !bytes.Equal(got, onDisk) {
				t.Fatalf("maxBytes=%d: segment %d: header + streamed frames (%d bytes) differ from disk (%d bytes)",
					maxBytes, seg, len(got), len(onDisk))
			}
		}
	}

	// Decay record 2 at rest — its CRC, its type byte, then its last
	// byte — and read across it at every bound.
	const victim = 2
	at := starts[victim]
	path := filepath.Join(dir, wal.SegmentName(at.Segment))
	for _, rel := range []int64{0, 8, int64(sizes[victim] - 1)} {
		disk.flip(t, path, at.Offset+rel)
		for maxBytes := 1; maxBytes <= 3*maxFrame; maxBytes++ {
			for from := 0; from <= victim; from++ {
				span := 0
				for _, sz := range sizes[from : victim+1] {
					span += sz
				}
				served := from == victim || span <= maxBytes
				_, n, _, _, err := l.ReadFrom(starts[from], maxBytes)
				var ce *wal.CorruptError
				switch {
				case served && !errors.As(err, &ce):
					t.Fatalf("flip +%d, maxBytes=%d, from record %d: err = %v, want *CorruptError", rel, maxBytes, from, err)
				case served && ce.Offset != at.Offset:
					t.Fatalf("flip +%d, maxBytes=%d, from record %d: corrupt at byte %d, want %d", rel, maxBytes, from, ce.Offset, at.Offset)
				case !served && (err != nil || n == 0 || n > victim-from):
					t.Fatalf("flip +%d, maxBytes=%d, from record %d: %d records, err = %v; want the frames before the flip",
						rel, maxBytes, from, n, err)
				}
			}
		}
		// A lag count across the damaged frame fails rather than
		// undercounting.
		var ce *wal.CorruptError
		if _, err := l.CountFrom(starts[1]); !errors.As(err, &ce) || ce.Offset != at.Offset {
			t.Fatalf("flip +%d: CountFrom across the flip: %v, want *CorruptError at byte %d", rel, err, at.Offset)
		}
		disk.flip(t, path, at.Offset+rel) // undo
	}
}

// CountFrom serves whole segments from the per-segment record table
// and scans only the remainder of the first; the table must stay right
// across appends, rotation, reopen (filled by the recovery scan),
// truncation and quarantine.
func TestCountFromTracksSegmentTable(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNone, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	var starts []wal.Pos
	appendRecs := func(l *wal.Log, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			data := []byte(fmt.Sprintf("record-%04d", len(starts)))
			if err := l.Append(wal.Record{Type: 1, Data: data}); err != nil {
				t.Fatal(err)
			}
			end := l.End()
			starts = append(starts, wal.Pos{Segment: end.Segment, Offset: end.Offset - int64(wal.FrameOverhead+len(data))})
		}
	}
	check := func(l *wal.Log, first int, what string) {
		t.Helper()
		if n, err := l.CountFrom(wal.Pos{}); err != nil || n != int64(len(starts)-first) {
			t.Fatalf("%s: CountFrom(zero) = %d, %v; want %d", what, n, err, len(starts)-first)
		}
		for i := first; i < len(starts); i++ {
			if n, err := l.CountFrom(starts[i]); err != nil || n != int64(len(starts)-i) {
				t.Fatalf("%s: CountFrom(record %d at %v) = %d, %v; want %d", what, i, starts[i], n, err, len(starts)-i)
			}
		}
		if n, err := l.CountFrom(l.End()); err != nil || n != 0 {
			t.Fatalf("%s: CountFrom(end) = %d, %v; want 0", what, n, err)
		}
	}

	appendRecs(l, 20)
	check(l, 0, "live")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, err = wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNone, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	check(l, 0, "reopened")
	appendRecs(l, 7)
	check(l, 0, "reopened+appended")

	// Drop the first segment, then quarantine the (sealed) next one.
	if err := l.TruncateBefore(starts[0].Segment + 1); err != nil {
		t.Fatal(err)
	}
	first := 0
	for starts[first].Segment == starts[0].Segment {
		first++
	}
	check(l, first, "truncated")
	seg := starts[first].Segment
	if err := l.Quarantine(seg); err != nil {
		t.Fatal(err)
	}
	for starts[first].Segment == seg {
		first++
	}
	check(l, first, "quarantined")
}

// The stream cost model: shipping the tail of a full segment and
// counting the lag behind it read only those bytes. A read that copies
// the whole segment onto the heap (~DefaultSegmentBytes) fails this.
func TestCursorReadsAllocateOnlyTheRange(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte{0x5a}, 4096)
	frame := int64(wal.FrameOverhead + len(payload))
	seg := l.End().Segment
	var last wal.Pos
	for l.End().Offset+frame <= wal.DefaultSegmentBytes {
		last = l.End()
		if err := l.Append(wal.Record{Type: 1, Data: payload}); err != nil {
			t.Fatal(err)
		}
	}
	if end := l.End(); end.Segment != seg || end.Offset < wal.DefaultSegmentBytes-frame {
		t.Fatalf("segment not filled: end %v", end)
	}

	const budget = 64 << 10
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var (
		n     int
		count int64
		rerr  error
		cerr  error
	)
	readBytes := allocated(func() { _, n, _, _, rerr = l.ReadFrom(last, 1<<20) })
	countBytes := allocated(func() { count, cerr = l.CountFrom(last) })
	if rerr != nil || n != 1 {
		t.Fatalf("ReadFrom(last frame) = %d records, %v; want 1", n, rerr)
	}
	if cerr != nil || count != 1 {
		t.Fatalf("CountFrom(last frame) = %d, %v; want 1", count, cerr)
	}
	if readBytes >= budget {
		t.Errorf("ReadFrom of one %d-byte frame allocated %d bytes (budget %d, segment %d)", frame, readBytes, budget, l.End().Offset)
	}
	if countBytes >= budget {
		t.Errorf("CountFrom over one %d-byte frame allocated %d bytes (budget %d, segment %d)", frame, countBytes, budget, l.End().Offset)
	}
}
