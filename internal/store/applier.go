// applier.go exports the WAL replay machinery so that consumers beyond
// crash recovery — chiefly the replication subsystem, whose replicas
// apply a continuous stream of journalled records — reuse the exact same
// idempotent application path. A record applied here has the same effect
// as the original mutation that produced it, and re-applying a record
// over state that already includes it converges instead of failing.
package store

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/disclosure"
	"github.com/lsds/browserflow/internal/fingerprint"
	"github.com/lsds/browserflow/internal/obs"
	"github.com/lsds/browserflow/internal/policy"
	"github.com/lsds/browserflow/internal/segment"
	"github.com/lsds/browserflow/internal/tdm"
	"github.com/lsds/browserflow/internal/wal"
)

// Applier replays journalled WAL records into a tracker + registry
// through a journal-less policy engine, so every side effect (labels,
// implicit tags, stored-by marks, audit entries) is regenerated by the
// same code that produced it on the node that journalled the record.
// It is not safe for concurrent use; callers serialise Apply.
type Applier struct {
	engine   *policy.Engine
	registry *tdm.Registry
	amend    map[uint64]audit.Entry
	applied  int64

	// traces, when set (SetTraceLog), receives a "replica.apply" span
	// for every applied observe record that carries a journalled trace
	// ID — the last hop of an end-to-end request trace.
	traces *obs.TraceLog

	// filter, when set (SetSegmentFilter), restricts *tracker* state to
	// accepted segments: observe records for rejected segments apply
	// their registry effects (stored-by marks, labels, shadow tags stay
	// global in a partitioned cluster) but skip the fingerprint index.
	// This is how a partition-split target replays a WAL that mirrors the
	// source's bytes while materialising only the moving key range.
	filter func(segment.ID) bool
}

// NewApplier builds an Applier over tracker and registry. The engine it
// replays through runs in advisory mode and journals nothing.
func NewApplier(tracker *disclosure.Tracker, registry *tdm.Registry) (*Applier, error) {
	engine, err := policy.NewEngine(tracker, registry, policy.ModeAdvisory)
	if err != nil {
		return nil, err
	}
	return &Applier{
		engine:   engine,
		registry: registry,
		amend:    make(map[uint64]audit.Entry),
	}, nil
}

// Applied returns the number of records applied so far.
func (a *Applier) Applied() int64 { return a.applied }

// SetTraceLog attaches a span ring: applied observe records whose
// journalled trace ID is non-empty emit "replica.apply" spans into it.
func (a *Applier) SetTraceLog(t *obs.TraceLog) { a.traces = t }

// SetSegmentFilter restricts tracker-state application to segments the
// filter accepts (nil accepts everything). See the field comment.
func (a *Applier) SetSegmentFilter(f func(segment.ID) bool) { a.filter = f }

// accepts reports whether seg's tracker state should be materialised.
func (a *Applier) accepts(seg segment.ID) bool {
	return a.filter == nil || a.filter(seg)
}

// applySpan opens a "replica.apply" span for a record's journalled
// trace; the zero handle (no trace log / untraced record) is inert.
func (a *Applier) applySpan(trace, kind string) obs.SpanHandle {
	if a.traces == nil || trace == "" {
		return obs.SpanHandle{}
	}
	ctx := obs.WithTrace(context.Background(), trace, a.traces)
	sp := obs.StartSpan(ctx, "replica.apply")
	sp.SetAttr("record", kind)
	return sp
}

// Apply replays one record. Errors that mean "this effect is already
// present" are swallowed, keeping application idempotent.
func (a *Applier) Apply(rec wal.Record) error {
	if err := a.apply(rec); err != nil {
		return err
	}
	a.applied++
	return nil
}

func (a *Applier) apply(rec wal.Record) error {
	switch rec.Type {
	case recObserve:
		op, err := decodeObserve(rec.Data)
		if err != nil {
			return err
		}
		if !a.accepts(op.Seg) {
			return a.registry.Observe(op.Seg, op.Service)
		}
		sp := a.applySpan(op.Trace, "observe")
		fp := fingerprint.FromHashes(op.Hashes)
		if op.G == segment.GranularityDocument {
			_, err = a.engine.ObserveDocumentEditFP(op.Seg, op.Service, fp)
		} else {
			_, err = a.engine.ObserveEditFP(op.Seg, op.Service, fp)
		}
		sp.End(err)
		return err

	case recObserveBatch:
		svc, items, trace, err := decodeObserveBatch(rec.Data)
		if err != nil {
			return err
		}
		if a.filter != nil {
			kept := items[:0]
			for _, item := range items {
				if a.accepts(item.Seg) {
					kept = append(kept, item)
					continue
				}
				if err := a.registry.Observe(item.Seg, svc); err != nil {
					return err
				}
			}
			if items = kept; len(items) == 0 {
				return nil
			}
		}
		sp := a.applySpan(trace, "observe_batch")
		if sp.Active() {
			sp.SetAttr("items", strconv.Itoa(len(items)))
		}
		_, err = a.engine.ObserveBatchFP(svc, items)
		sp.End(err)
		return err

	case recObserveResolved:
		op, err := decodeObserveResolved(rec.Data)
		if err != nil {
			return err
		}
		if !a.accepts(op.Seg) {
			// Registry state stays global on a filtered replica: record
			// the stored-by mark and mirror the shadow tags so label
			// lookups behave like the source's.
			if err := a.registry.Observe(op.Seg, op.Service); err != nil {
				return err
			}
			for seg, names := range op.Tags {
				tags := make([]tdm.Tag, len(names))
				for i, n := range names {
					tags[i] = tdm.Tag(n)
				}
				a.registry.UpsertExplicit(seg, tags)
			}
			return nil
		}
		sp := a.applySpan(op.Trace, "observe_resolved")
		fp := fingerprint.FromHashes(op.Hashes)
		_, err = a.engine.ObserveResolvedFPCtx(context.Background(), op.Seg, op.Service, fp, op.G, op.Clock, op.Sources, op.Tags)
		sp.End(err)
		return err

	case recPruneRange:
		op, err := decodePruneRange(rec.Data)
		if err != nil {
			return err
		}
		_, err = a.engine.PruneRange(context.Background(), op.Lo, op.Hi)
		return err

	case recSuppress:
		op, err := decodeControl(rec.Data)
		if err != nil {
			return err
		}
		// A suppression that is already in effect (tag no longer on the
		// segment) is a no-op on re-application: replay stays idempotent.
		return ignoreApplied(a.engine.Suppress(op.User, op.Seg, op.Tag, op.Justification))

	case recAllocateTag:
		op, err := decodeControl(rec.Data)
		if err != nil {
			return err
		}
		// Re-allocating a tag the journal already allocated is a no-op.
		return ignoreApplied(a.engine.AllocateTag(op.User, op.Tag))

	case recAddSegTag:
		op, err := decodeControl(rec.Data)
		if err != nil {
			return err
		}
		return ignoreApplied(a.engine.AddTagToSegment(op.User, op.Seg, op.Tag))

	case recGrantTag:
		op, err := decodeControl(rec.Data)
		if err != nil {
			return err
		}
		return a.engine.GrantTag(op.User, op.Service, op.Tag)

	case recRevokeTag:
		op, err := decodeControl(rec.Data)
		if err != nil {
			return err
		}
		return a.engine.RevokeTag(op.User, op.Service, op.Tag)

	case recAudit:
		entries, err := decodeAudit(rec.Data)
		if err != nil {
			return err
		}
		auditLog := a.registry.Audit()
		for _, e := range entries {
			// Entries regenerated by an op replay are amended later (so
			// their original timestamps win); standalone appends
			// (overrides) are replayed here.
			if e.Seq > uint64(auditLog.Len()) {
				auditLog.Append(audit.Entry{
					User:          e.User,
					Action:        e.Action,
					Tag:           e.Tag,
					Segment:       e.Segment,
					Service:       e.Service,
					Justification: e.Justification,
				})
			}
			a.amend[e.Seq] = e
		}
		return nil

	default:
		return fmt.Errorf("store: unknown WAL record type %d", rec.Type)
	}
}

// RestoreAuditTimestamps amends regenerated audit entries with the
// original timestamps carried by journalled audit records, returning how
// many were restored. It is safe to call repeatedly (streaming replicas
// call it after every applied batch: an op record always precedes its
// audit record in the log, so by batch end both halves are present).
func (a *Applier) RestoreAuditTimestamps() int {
	restored := 0
	auditLog := a.registry.Audit()
	for seq, e := range a.amend {
		if auditLog.Amend(e) {
			restored++
		}
		delete(a.amend, seq)
	}
	return restored
}

// ignoreApplied swallows errors that mean "this effect is already
// present", which is exactly what re-running a WAL record over state
// that already includes it produces. Keeping these benign makes replay
// semantically idempotent: applying the log twice converges to the same
// state instead of failing halfway.
func ignoreApplied(err error) error {
	if errors.Is(err, tdm.ErrTagExists) || errors.Is(err, tdm.ErrTagNotOnSegment) {
		return nil
	}
	return err
}

// --- checkpoint file helpers ------------------------------------------------

// CheckpointName is the file name of the checkpoint whose WAL epoch
// barrier is seg.
func CheckpointName(seg uint64) string {
	return fmt.Sprintf("checkpoint-%016x.bf", seg)
}

// ParseCheckpointName inverts CheckpointName.
func ParseCheckpointName(name string) (uint64, bool) {
	var seg uint64
	if _, err := fmt.Sscanf(name, "checkpoint-%016x.bf", &seg); err != nil {
		return 0, false
	}
	if name != CheckpointName(seg) {
		return 0, false
	}
	return seg, true
}

// LoadNewestCheckpoint scans dir for checkpoint files and loads the
// newest one that parses cleanly — and, when restore is non-nil, whose
// restore succeeds — skipping (and counting) corrupt files in favour of
// older spares. It returns a nil snapshot when the directory holds no
// loadable checkpoint. logf may be nil.
func LoadNewestCheckpoint(fs wal.FS, dir string, key []byte, restore func(*Snapshot) error, logf func(string, ...interface{})) (snap *Snapshot, name string, corrupt int, err error) {
	if fs == nil {
		fs = wal.OSFS{}
	}
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	names, err := fs.ReadDirNames(dir)
	if err != nil {
		return nil, "", 0, fmt.Errorf("store: read durable dir: %w", err)
	}
	var ckpts []uint64
	for _, n := range names {
		if seg, ok := ParseCheckpointName(n); ok {
			ckpts = append(ckpts, seg)
		}
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] > ckpts[j] }) // newest first
	for _, seg := range ckpts {
		n := CheckpointName(seg)
		s, err := LoadFS(fs, filepath.Join(dir, n), key)
		if err == nil && restore != nil {
			err = restore(&s)
		}
		if err != nil {
			corrupt++
			logf("store: skipping checkpoint %s: %v", n, err)
			continue
		}
		if s.WALSeg == 0 {
			s.WALSeg = seg
		}
		return &s, n, corrupt, nil
	}
	return nil, "", corrupt, nil
}
