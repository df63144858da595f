package tdm

import "fmt"

// fastCheck is the registry's installed compiled-policy state: the tag
// interner fixing bit positions and one privilege bitset row per service.
// All fields are guarded by the registry lock. When fast is nil the
// registry answers CheckRelease from the TagSet semilattice exactly as it
// always did; when installed, the allow path of CheckRelease becomes a
// word-wise subset test with zero allocations.
type fastCheck struct {
	interner *Interner
	priv     map[string]Bits
}

// ErrTableMismatch reports a compiled check table whose rows disagree with
// the registry's live service labels — the policy artefact and the running
// state have diverged, and installing the table would change verdicts.
var ErrTableMismatch = fmt.Errorf("tdm: check table disagrees with registered services")

// InstallCheckTable switches the registry onto the compiled bitset fast
// path. The table's tag order seeds the interner (so policy hashes and bit
// positions are deterministic); privilege rows are then rebuilt from the
// *registered* services — the registry state stays authoritative — and
// every known label's effective bitset is computed eagerly. If the table
// carries a row for a registered service that disagrees with its live
// privilege label, installation fails with ErrTableMismatch: the caller is
// holding a stale compile.
//
// Tags first seen after installation (custom tag allocation, shadow
// labels) are interned on demand under the registry write lock, so the
// fast path keeps covering the whole tag universe.
func (r *Registry) InstallCheckTable(table *CheckTable) error {
	r.mu.Lock()
	defer r.mu.Unlock()

	in := NewInterner()
	if table != nil {
		for _, t := range table.Tags {
			in.Intern(t)
		}
		for _, row := range table.Rows {
			svc, ok := r.services[row.Name]
			if !ok {
				continue
			}
			if !rowMatches(in, row.Priv, svc.Privilege) {
				return fmt.Errorf("%w: service %s", ErrTableMismatch, row.Name)
			}
		}
	}
	r.fast = &fastCheck{interner: in, priv: make(map[string]Bits, len(r.services))}
	for _, svc := range r.services {
		r.fastService(svc)
	}
	for _, st := range r.labels {
		r.fastRefresh(&st.Label)
	}
	return nil
}

// EnableFastCheck installs the bitset fast path without a compiled table,
// interning the tags of the currently registered services. Tests use it to
// compare the two check paths on registries built programmatically.
func (r *Registry) EnableFastCheck() {
	_ = r.InstallCheckTable(nil)
}

// FastCheckEnabled reports whether the compiled bitset path is installed.
func (r *Registry) FastCheckEnabled() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.fast != nil
}

// rowMatches reports whether a compiled privilege row names exactly the
// tags of the live set.
func rowMatches(in *Interner, row Bits, live TagSet) bool {
	n := 0
	for t := range live {
		id, ok := in.ID(t)
		if !ok || !row.has(id) {
			return false
		}
		n++
	}
	// Every live tag is in the row; equal cardinality rules out extras.
	count := 0
	for _, w := range row {
		for ; w != 0; w &= w - 1 {
			count++
		}
	}
	return count == n
}

// fastService (re)builds one service's privilege bitset row. Caller holds
// the registry write lock.
func (r *Registry) fastService(svc *Service) {
	f := r.fast
	if f == nil {
		return
	}
	row := f.priv[svc.Name]
	row = row.reset()
	for t := range svc.Privilege {
		row = row.set(f.interner.Intern(t))
	}
	f.priv[svc.Name] = row
}

// fastRefresh recomputes one label's effective bitset in place, reusing
// its backing array. Caller holds the registry write lock. It is a no-op
// without an installed fast path — labels then stay effValid=false and
// CheckRelease uses the semilattice.
func (r *Registry) fastRefresh(label *Label) {
	f := r.fast
	if f == nil {
		return
	}
	label.eff = label.eff.reset()
	for t := range label.explicit {
		if !label.suppressed.Has(t) {
			label.eff = label.eff.set(f.interner.Intern(t))
		}
	}
	for t := range label.implicit {
		if !label.suppressed.Has(t) {
			label.eff = label.eff.set(f.interner.Intern(t))
		}
	}
	label.effValid = true
}
