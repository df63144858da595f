package tdm

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/lsds/browserflow/internal/audit"
	"github.com/lsds/browserflow/internal/segment"
)

// Common registry errors, exported so callers can match with errors.Is.
var (
	ErrServiceExists   = errors.New("tdm: service already registered")
	ErrServiceUnknown  = errors.New("tdm: unknown service")
	ErrTagExists       = errors.New("tdm: tag already allocated")
	ErrTagUnknown      = errors.New("tdm: tag not allocated")
	ErrNotTagOwner     = errors.New("tdm: user does not own tag")
	ErrTagNotOnSegment = errors.New("tdm: tag not attached to segment")
)

// Service is a cloud service with its TDM label pair (§3.1): the privilege
// label Lp marks the highest level of confidential data the service is
// trusted to receive; the confidentiality label Lc is the default
// confidentiality of data created within it.
type Service struct {
	// Name identifies the service ("wiki", "itool", "docs").
	Name string

	// Privilege is Lp.
	Privilege TagSet

	// Confidentiality is Lc. The registry never mutates it after
	// registration, so default-assigned labels share it (see Label).
	Confidentiality TagSet

	// only is the one-element list [Name]: the stored-by list of every
	// segment this service alone stores aliases it.
	only []string
}

// newService builds a registry-owned service record.
func newService(name string, lp, lc TagSet) *Service {
	return &Service{Name: name, Privilege: lp, Confidentiality: lc, only: []string{name}}
}

// segState is the registry's record of one segment: its label and the
// names of the services storing it, sorted. In practice one service stores
// a segment, and that list aliases the service's own, so neither the
// label's default tags nor its storage cost a per-segment allocation.
type segState struct {
	Label
	stored []string
}

// addStored records that svc stores the segment.
func (st *segState) addStored(svc *Service) {
	i := sort.SearchStrings(st.stored, svc.Name)
	switch {
	case i < len(st.stored) && st.stored[i] == svc.Name:
	case len(st.stored) == 0:
		st.stored = svc.only
	default:
		out := make([]string, 0, len(st.stored)+1)
		out = append(out, st.stored[:i]...)
		out = append(out, svc.Name)
		st.stored = append(out, st.stored[i:]...)
	}
}

// Registry holds the enterprise-wide TDM state: services, segment labels,
// custom tag ownership, and which services store which segments. It is safe
// for concurrent use.
type Registry struct {
	mu sync.RWMutex

	services  map[string]*Service
	labels    map[segment.ID]*segState
	tagOwners map[Tag]string

	// fast, when installed, is the compiled bitset check state (see
	// fastcheck.go). nil keeps the original semilattice-only behaviour.
	fast *fastCheck

	auditLog *audit.Log
}

// NewRegistry returns an empty Registry writing to auditLog. A nil auditLog
// creates a private one.
func NewRegistry(auditLog *audit.Log) *Registry {
	if auditLog == nil {
		auditLog = audit.NewLog()
	}
	return &Registry{
		services:  make(map[string]*Service),
		labels:    make(map[segment.ID]*segState),
		tagOwners: make(map[Tag]string),
		auditLog:  auditLog,
	}
}

// Audit returns the registry's audit log.
func (r *Registry) Audit() *audit.Log { return r.auditLog }

// RegisterService adds a service with its label pair. The administrator
// performs this once per service.
func (r *Registry) RegisterService(name string, lp, lc TagSet) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.services[name]; ok {
		return fmt.Errorf("%w: %s", ErrServiceExists, name)
	}
	svc := newService(name, lp.Clone(), lc.Clone())
	r.services[name] = svc
	r.fastService(svc)
	return nil
}

// Service returns a copy of the named service.
func (r *Registry) Service(name string) (Service, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	svc, ok := r.services[name]
	if !ok {
		return Service{}, fmt.Errorf("%w: %s", ErrServiceUnknown, name)
	}
	return Service{
		Name:            svc.Name,
		Privilege:       svc.Privilege.Clone(),
		Confidentiality: svc.Confidentiality.Clone(),
	}, nil
}

// Services returns copies of all registered services, sorted by name.
func (r *Registry) Services() []Service {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Service, 0, len(r.services))
	for _, svc := range r.services {
		out = append(out, Service{
			Name:            svc.Name,
			Privilege:       svc.Privilege.Clone(),
			Confidentiality: svc.Confidentiality.Clone(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Observe records that seg is stored by service and, if the segment has
// no label yet, assigns it the service's confidentiality label Lc as
// explicit tags (default tag assignment, §3.1). Re-observing a known
// segment in a service already storing it allocates nothing; read the
// label with Label.
func (r *Registry) Observe(seg segment.ID, service string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, err := r.observeLocked(seg, service)
	return err
}

// ObserveSegment is Observe returning a copy of the segment's label.
func (r *Registry) ObserveSegment(seg segment.ID, service string) (*Label, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, err := r.observeLocked(seg, service)
	if err != nil {
		return nil, err
	}
	return st.Clone(), nil
}

func (r *Registry) observeLocked(seg segment.ID, service string) (*segState, error) {
	svc, ok := r.services[service]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrServiceUnknown, service)
	}
	st, ok := r.labels[seg]
	if !ok {
		st = &segState{}
		st.shareExplicit(svc.Confidentiality)
		r.labels[seg] = st
		r.fastRefresh(&st.Label)
	}
	st.addStored(svc)
	return st, nil
}

// state returns seg's record, creating an empty label if absent. Caller
// holds the write lock.
func (r *Registry) state(seg segment.ID) *segState {
	st, ok := r.labels[seg]
	if !ok {
		st = &segState{}
		r.labels[seg] = st
	}
	return st
}

// UpsertExplicit replaces seg's explicit tag set, creating the label if
// absent and preserving implicit and suppressed tags. This is the shadow
// label mechanism of the partitioned cluster: when a routed observation
// resolves disclosure sources homed on other partitions, their explicit
// tags ride along in the reply and are mirrored here so the subsequent
// RefreshImplicit sees the same source labels a single shared registry
// would. Deliberately not audited — every mutation being mirrored was
// already audited at the source segment's home partition.
func (r *Registry) UpsertExplicit(seg segment.ID, tags []Tag) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.state(seg)
	st.explicit, st.explicitShared = tagSetOf(tags), false
	st.effValid = false
	r.fastRefresh(&st.Label)
}

// Label returns a copy of seg's label, or nil if the segment is unknown.
func (r *Registry) Label(seg segment.ID) *Label {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if st, ok := r.labels[seg]; ok {
		return st.Clone()
	}
	return nil
}

// RefreshImplicit replaces seg's implicit tags with the union of the
// *explicit* tags of its current disclosure sources (§3.2). Implicit tags of
// the sources are deliberately not copied — a segment that merely disclosed
// information in the past is not the authoritative origin, which is what
// stops outdated tags from propagating (Figure 6).
func (r *Registry) RefreshImplicit(seg segment.ID, sources []segment.ID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := r.state(seg)
	var implicit TagSet
	for _, src := range sources {
		srcState, ok := r.labels[src]
		if !ok {
			continue
		}
		for t := range srcState.explicit {
			// The segment's own explicit tags need not be duplicated as
			// implicit.
			if !st.explicit.Has(t) {
				if implicit == nil {
					implicit = make(TagSet)
				}
				implicit[t] = struct{}{}
			}
		}
	}
	st.implicit = implicit
	st.effValid = false
	r.fastRefresh(&st.Label)
}

// CheckRelease evaluates the §3.1 release condition for seg towards
// service: effective(label) ⊆ Lp. Unknown segments (never observed) carry
// the empty label and are releasable anywhere.
func (r *Registry) CheckRelease(seg segment.ID, service string) (ok bool, violating []Tag, err error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	svc, found := r.services[service]
	if !found {
		return false, nil, fmt.Errorf("%w: %s", ErrServiceUnknown, service)
	}
	st, found := r.labels[seg]
	if !found {
		return true, nil, nil
	}
	label := &st.Label
	// Compiled fast path: a word-wise subset test over the interned-tag
	// bitsets, allocation-free on the allow outcome. A violation falls
	// through to the semilattice, which names the violating tags in the
	// exact bytes the slow path always produced.
	if f := r.fast; f != nil && label.effValid {
		if priv, rowOK := f.priv[service]; rowOK && label.eff.SubsetOf(priv) {
			return true, nil, nil
		}
	}
	ok, violating = label.ReleasableTo(svc.Privilege)
	return ok, violating, nil
}

// SuppressTag declassifies tag on seg for this propagation (§3.1 "User tag
// suppression"). The suppression is recorded in the audit trail with the
// user and justification. Suppression is case-by-case: it applies to this
// destination segment only, and copying the same source again to a new
// destination requires a fresh suppression.
func (r *Registry) SuppressTag(user string, seg segment.ID, tag Tag, justification string) error {
	r.mu.Lock()
	st, ok := r.labels[seg]
	if !ok || !st.Suppress(tag) {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s on %s", ErrTagNotOnSegment, tag, seg)
	}
	r.fastRefresh(&st.Label)
	r.mu.Unlock()

	r.auditLog.Append(audit.Entry{
		User:          user,
		Action:        audit.ActionSuppress,
		Tag:           string(tag),
		Segment:       string(seg),
		Justification: justification,
	})
	return nil
}

// AllocateTag reserves a new custom tag owned by user (§3.1 "Custom tag
// allocation").
func (r *Registry) AllocateTag(user string, tag Tag) error {
	r.mu.Lock()
	if _, ok := r.tagOwners[tag]; ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrTagExists, tag)
	}
	r.tagOwners[tag] = user
	r.mu.Unlock()

	r.auditLog.Append(audit.Entry{
		User:   user,
		Action: audit.ActionAllocate,
		Tag:    string(tag),
	})
	return nil
}

// TagOwner returns the user that allocated tag.
func (r *Registry) TagOwner(tag Tag) (string, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	owner, ok := r.tagOwners[tag]
	return owner, ok
}

// AddTagToSegment attaches a previously allocated custom tag to seg's
// explicit label. Per §3.1, every service that *already stores* the segment
// automatically receives the tag in its privilege label, so that the TDM
// does not restrict propagation of text those services already hold
// (Figure 5, step 4).
func (r *Registry) AddTagToSegment(user string, seg segment.ID, tag Tag) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	owner, ok := r.tagOwners[tag]
	if !ok {
		return fmt.Errorf("%w: %s", ErrTagUnknown, tag)
	}
	if owner != user {
		return fmt.Errorf("%w: %s owned by %s", ErrNotTagOwner, tag, owner)
	}
	st := r.state(seg)
	st.AddExplicit(tag)
	r.fastRefresh(&st.Label)
	for _, svcName := range st.stored {
		if svc, ok := r.services[svcName]; ok {
			svc.Privilege.Add(tag)
			r.fastService(svc)
		}
	}
	return nil
}

// GrantTag adds a custom tag to a service's privilege label. Only the tag's
// owner controls which services may process data protected with it.
func (r *Registry) GrantTag(user string, service string, tag Tag) error {
	if err := r.mutatePrivilege(user, service, tag, true); err != nil {
		return err
	}
	r.auditLog.Append(audit.Entry{
		User:    user,
		Action:  audit.ActionGrant,
		Tag:     string(tag),
		Service: service,
	})
	return nil
}

// RevokeTag removes a custom tag from a service's privilege label.
func (r *Registry) RevokeTag(user string, service string, tag Tag) error {
	if err := r.mutatePrivilege(user, service, tag, false); err != nil {
		return err
	}
	r.auditLog.Append(audit.Entry{
		User:    user,
		Action:  audit.ActionRevoke,
		Tag:     string(tag),
		Service: service,
	})
	return nil
}

func (r *Registry) mutatePrivilege(user, service string, tag Tag, add bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	owner, ok := r.tagOwners[tag]
	if !ok {
		return fmt.Errorf("%w: %s", ErrTagUnknown, tag)
	}
	if owner != user {
		return fmt.Errorf("%w: %s owned by %s", ErrNotTagOwner, tag, owner)
	}
	svc, ok := r.services[service]
	if !ok {
		return fmt.Errorf("%w: %s", ErrServiceUnknown, service)
	}
	if add {
		svc.Privilege.Add(tag)
	} else {
		svc.Privilege.Remove(tag)
	}
	r.fastService(svc)
	return nil
}

// StoredBy returns the names of the services currently storing seg, sorted.
func (r *Registry) StoredBy(seg segment.ID) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var stored []string
	if st, ok := r.labels[seg]; ok {
		stored = st.stored
	}
	return append(make([]string, 0, len(stored)), stored...)
}
