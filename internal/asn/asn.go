// Package asn models autonomous systems: identity, country, ground-truth
// role, and a CAIDA-style AS-classification snapshot.
//
// The paper's AS-level filtering (Section 5.1, Table 5) consumes CAIDA's
// AS-classification dataset, which labels ASes Transit/Access, Content, or
// Enterprise — with some ASes missing entirely. This package reproduces both
// the registry (ground truth, generator-side) and the classification snapshot
// (measurement-side, incomplete on purpose).
package asn

import (
	"fmt"
	"sort"
)

// Class is the CAIDA-style AS classification the measurement pipeline sees.
type Class uint8

const (
	// ClassUnknown marks ASes absent from the classification snapshot.
	ClassUnknown Class = iota
	// ClassTransitAccess marks transit and access networks.
	ClassTransitAccess
	// ClassContent marks content and hosting networks.
	ClassContent
	// ClassEnterprise marks enterprise networks.
	ClassEnterprise
)

// String returns the CAIDA-style label.
func (c Class) String() string {
	switch c {
	case ClassTransitAccess:
		return "Transit/Access"
	case ClassContent:
		return "Content"
	case ClassEnterprise:
		return "Enterprise"
	case ClassUnknown:
		return "Unknown"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Role is the ground-truth role of an AS in the synthetic world. The
// measurement pipeline never reads roles; they exist so precision and recall
// can be computed exactly.
type Role uint8

const (
	// RoleFixedISP is a fixed-line-only access ISP.
	RoleFixedISP Role = iota
	// RoleDedicatedCellular is a cellular-only operator AS; may include
	// home broadband delivered over a cellular radio.
	RoleDedicatedCellular
	// RoleMixedOperator serves cellular and fixed-line customers from the
	// same AS.
	RoleMixedOperator
	// RoleCloudHosting is cloud infrastructure (the AWS/DigitalOcean-style
	// false positives of the straw-man AS tagging).
	RoleCloudHosting
	// RoleProxyService operates connection-terminating performance proxies
	// for mobile browsers (the Google/Opera-style false positives).
	RoleProxyService
	// RoleVPNService forwards mobile-client traffic through VPN egress.
	RoleVPNService
	// RoleEnterprise is a non-access enterprise network.
	RoleEnterprise
	// RoleContent is a content/CDN network.
	RoleContent
	// RoleTransit is a backbone transit network.
	RoleTransit
)

// String names the role for reports and debugging.
func (r Role) String() string {
	switch r {
	case RoleFixedISP:
		return "fixed-isp"
	case RoleDedicatedCellular:
		return "dedicated-cellular"
	case RoleMixedOperator:
		return "mixed-operator"
	case RoleCloudHosting:
		return "cloud-hosting"
	case RoleProxyService:
		return "proxy-service"
	case RoleVPNService:
		return "vpn-service"
	case RoleEnterprise:
		return "enterprise"
	case RoleContent:
		return "content"
	case RoleTransit:
		return "transit"
	}
	return fmt.Sprintf("Role(%d)", uint8(r))
}

// IsCellularAccess reports whether the role represents a cellular access
// network (the ground-truth positive set for AS-level identification).
func (r Role) IsCellularAccess() bool {
	return r == RoleDedicatedCellular || r == RoleMixedOperator
}

// AS describes one autonomous system.
type AS struct {
	Number  uint32
	Name    string
	Country string // ISO 3166-1 alpha-2
	Role    Role   // ground truth; generator-side only
	Class   Class  // true class; the snapshot may hide or keep it
}

// Registry is an immutable collection of ASes indexed by number.
type Registry struct {
	byNum map[uint32]*AS
	all   []*AS // sorted by AS number
}

// NewRegistry builds a registry, rejecting duplicate AS numbers.
func NewRegistry(ases []AS) (*Registry, error) {
	r := &Registry{byNum: make(map[uint32]*AS, len(ases))}
	for i := range ases {
		a := ases[i]
		if a.Number == 0 {
			return nil, fmt.Errorf("asn: AS number 0 is reserved")
		}
		if _, dup := r.byNum[a.Number]; dup {
			return nil, fmt.Errorf("asn: duplicate AS%d", a.Number)
		}
		cp := a
		r.byNum[a.Number] = &cp
		r.all = append(r.all, &cp)
	}
	sort.Slice(r.all, func(i, j int) bool { return r.all[i].Number < r.all[j].Number })
	return r, nil
}

// Lookup returns the AS with the given number.
func (r *Registry) Lookup(n uint32) (*AS, bool) {
	a, ok := r.byNum[n]
	return a, ok
}

// All returns every AS ordered by number. Callers must not mutate the slice.
func (r *Registry) All() []*AS { return r.all }

// Len returns the number of ASes.
func (r *Registry) Len() int { return len(r.all) }

// Snapshot is a CAIDA-style AS-classification dataset: a partial map from AS
// number to class. ASes absent from the snapshot have ClassUnknown, exactly
// like ASes missing from the real CAIDA file.
type Snapshot struct {
	classes map[uint32]Class
}

// BuildSnapshot derives a classification snapshot from a registry.
func BuildSnapshot(r *Registry) *Snapshot {
	s := &Snapshot{classes: make(map[uint32]Class, r.Len())}
	for _, a := range r.All() {
		if a.Class == ClassUnknown {
			continue
		}
		s.classes[a.Number] = a.Class
	}
	return s
}

// Class returns the snapshot's class for an AS; ClassUnknown when absent.
func (s *Snapshot) Class(n uint32) Class {
	return s.classes[n]
}

// DefaultClassFor returns the class an AS of the given role would carry in a
// CAIDA-style dataset. Access operators and transit networks are
// Transit/Access; proxies, clouds and CDNs are Content; VPN egress is
// Enterprise (they typically rent enterprise space).
func DefaultClassFor(role Role) Class {
	switch role {
	case RoleFixedISP, RoleDedicatedCellular, RoleMixedOperator, RoleTransit:
		return ClassTransitAccess
	case RoleCloudHosting, RoleProxyService, RoleContent:
		return ClassContent
	case RoleVPNService, RoleEnterprise:
		return ClassEnterprise
	}
	return ClassUnknown
}
