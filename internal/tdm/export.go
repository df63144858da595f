package tdm

import (
	"sort"

	"github.com/lsds/browserflow/internal/segment"
)

// ServiceRecord is the serialisable form of a service.
type ServiceRecord struct {
	Name            string `json:"name"`
	Privilege       []Tag  `json:"privilege"`
	Confidentiality []Tag  `json:"confidentiality"`
}

// LabelRecord is the serialisable form of a segment label.
type LabelRecord struct {
	Seg        segment.ID `json:"seg"`
	Explicit   []Tag      `json:"explicit"`
	Implicit   []Tag      `json:"implicit"`
	Suppressed []Tag      `json:"suppressed"`
	StoredBy   []string   `json:"storedBy"`
}

// TagRecord is the serialisable form of a custom tag allocation.
type TagRecord struct {
	Tag   Tag    `json:"tag"`
	Owner string `json:"owner"`
}

// ExportData is a complete serialisable snapshot of a Registry (the audit
// log is persisted separately).
type ExportData struct {
	Services []ServiceRecord `json:"services"`
	Labels   []LabelRecord   `json:"labels"`
	Tags     []TagRecord     `json:"tags"`
}

// Export snapshots the registry deterministically.
func (r *Registry) Export() ExportData {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var data ExportData
	for _, svc := range r.services {
		data.Services = append(data.Services, ServiceRecord{
			Name:            svc.Name,
			Privilege:       svc.Privilege.Sorted(),
			Confidentiality: svc.Confidentiality.Sorted(),
		})
	}
	sort.Slice(data.Services, func(i, j int) bool { return data.Services[i].Name < data.Services[j].Name })

	for seg, st := range r.labels {
		rec := LabelRecord{
			Seg:        seg,
			Explicit:   st.explicit.Sorted(),
			Implicit:   st.implicit.Sorted(),
			Suppressed: st.suppressed.Sorted(),
		}
		if len(st.stored) > 0 {
			rec.StoredBy = append([]string(nil), st.stored...)
		}
		data.Labels = append(data.Labels, rec)
	}
	sort.Slice(data.Labels, func(i, j int) bool { return data.Labels[i].Seg < data.Labels[j].Seg })

	for tag, owner := range r.tagOwners {
		data.Tags = append(data.Tags, TagRecord{Tag: tag, Owner: owner})
	}
	sort.Slice(data.Tags, func(i, j int) bool { return data.Tags[i].Tag < data.Tags[j].Tag })
	return data
}

// Import replaces the registry's contents with a previously exported
// snapshot. The audit log is untouched.
func (r *Registry) Import(data ExportData) error {
	services := make(map[string]*Service, len(data.Services))
	for _, rec := range data.Services {
		services[rec.Name] = newService(rec.Name, NewTagSet(rec.Privilege...), NewTagSet(rec.Confidentiality...))
	}
	labels := make(map[segment.ID]*segState, len(data.Labels))
	for _, rec := range data.Labels {
		st := &segState{stored: storedList(services, rec.StoredBy)}
		st.explicit = tagSetOf(rec.Explicit)
		st.implicit = tagSetOf(rec.Implicit)
		st.suppressed = tagSetOf(rec.Suppressed)
		// A label still carrying its only storing service's default tags
		// shares that service's Lc, as Observe's labels do.
		if len(st.stored) == 1 {
			if svc, ok := services[st.stored[0]]; ok && st.explicit.equal(svc.Confidentiality) {
				st.shareExplicit(svc.Confidentiality)
			}
		}
		labels[rec.Seg] = st
	}
	tagOwners := make(map[Tag]string, len(data.Tags))
	for _, rec := range data.Tags {
		tagOwners[rec.Tag] = rec.Owner
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	r.services = services
	r.labels = labels
	r.tagOwners = tagOwners
	// The compiled fast path, if installed, is derived state: rebuild the
	// privilege rows and effective bitsets for the imported world. The row
	// map is replaced wholesale so services absent from the snapshot do
	// not leave stale rows behind.
	if f := r.fast; f != nil {
		f.priv = make(map[string]Bits, len(r.services))
		for _, svc := range r.services {
			r.fastService(svc)
		}
		for _, st := range r.labels {
			r.fastRefresh(&st.Label)
		}
	}
	return nil
}

// storedList returns names as a sorted, duplicate-free stored-by list. A
// single registered service yields that service's own one-element list.
func storedList(services map[string]*Service, names []string) []string {
	if len(names) == 1 {
		if svc, ok := services[names[0]]; ok {
			return svc.only
		}
	}
	if len(names) == 0 {
		return nil
	}
	out := append([]string(nil), names...)
	sort.Strings(out)
	n := 1
	for _, name := range out[1:] {
		if name != out[n-1] {
			out[n] = name
			n++
		}
	}
	return out[:n]
}
