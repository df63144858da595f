package replication

import (
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"github.com/lsds/browserflow/internal/faultinject"
	"github.com/lsds/browserflow/internal/store"
	"github.com/lsds/browserflow/internal/wal"
)

// A lag the primary cannot measure must never reach the replica as
// "caught up": with a corrupt frame past the served batch, CountFrom
// fails, the primary omits X-BF-Lag, and the replica — which can then
// stream no further — keeps reporting itself behind, so the bfctl
// promote guard refuses it.
func TestStreamLagUnknownKeepsReplicaBehind(t *testing.T) {
	mem := faultinject.NewMemFS(3)
	const dir = "/primary"
	w := newWorld(t)
	durable, err := store.OpenDurable(store.DurableOptions{Dir: dir, FS: mem, Fsync: wal.SyncNone}, w.tracker, w.registry)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { durable.Close() })
	w.engine.SetJournal(durable)
	node, err := NewNode(NodeOptions{Role: RolePrimary, TermFile: filepath.Join(t.TempDir(), "TERM")})
	if err != nil {
		t.Fatal(err)
	}
	// One frame per batch: the corrupt frame is always past the batch
	// that precedes it.
	popts := PrimaryOptions{MaxWait: 2 * time.Second, MaxBatchBytes: 1, Logf: t.Logf}
	svc := NewService(node, popts, t.Logf)
	svc.SetPrimary(NewPrimary(node, durable, popts))
	server := httptest.NewServer(svc.Handler())
	t.Cleanup(server.Close)

	inj := faultinject.New(nil, 5)
	r := newReplicaFixture(t, server.URL, "", &http.Client{Transport: inj})
	startBootstrapped(t, r)

	// Cut the replica off (and let its in-flight long-poll drain) so the
	// records below are all waiting for it when it reconnects.
	inj.Partition()
	waitFor(t, 10*time.Second, "disconnect noticed", func() bool {
		return !r.replica.Status().Connected
	})
	for i := 0; i < 6; i++ {
		text := fmt.Sprintf("%s %d", testTexts[i%len(testTexts)], i)
		if _, err := w.engine.ObserveEdit(testSegs[i%len(testSegs)], "alpha", text); err != nil {
			t.Fatal(err)
		}
	}

	// Decay the CRC of the third frame of the segment the replica tails.
	end := durable.WAL().End()
	path := filepath.Join(dir, wal.SegmentName(end.Segment))
	data, err := mem.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(wal.HeaderSize)
	for i := 0; i < 2; i++ {
		off += int64(wal.FrameOverhead) + int64(binary.BigEndian.Uint32(data[off+4:off+8]))
	}
	if off >= end.Offset {
		t.Fatalf("fewer than three frames in segment %d", end.Segment)
	}
	if err := mem.FlipByte(path, off, 0x41); err != nil {
		t.Fatal(err)
	}

	inj.Heal()
	stuck := wal.Pos{Segment: end.Segment, Offset: off}.String()
	waitFor(t, 10*time.Second, "replica to stream up to the corrupt frame", func() bool {
		return r.replica.Status().Position == stuck
	})
	// The position and the lag of the batch before the corrupt frame are
	// published together; the failing rounds after it change neither.
	if st := r.replica.Status(); st.LagRecords < 1 {
		t.Fatalf("replica stuck before a corrupt frame reports lag_records = %d, want >= 1 (status %+v)", st.LagRecords, st)
	}
}

// The snapshot endpoint serves only the binary BFLOWSNB image: a request
// that does not accept it gets 406, never a JSON body.
func TestReplicationSnapshotRequiresBinaryAccept(t *testing.T) {
	p := newPrimaryFixture(t, wal.SyncNone)
	for _, accept := range []string{"", "application/json"} {
		req, err := http.NewRequest(http.MethodGet, p.server.URL+"/v1/repl/snapshot", nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotAcceptable {
			t.Fatalf("Accept %q: status %d, want %d", accept, resp.StatusCode, http.StatusNotAcceptable)
		}
	}
	req, err := http.NewRequest(http.MethodGet, p.server.URL+"/v1/repl/snapshot", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", SnapshotContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != SnapshotContentType {
		t.Fatalf("binary snapshot: status %d, Content-Type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
}
