package asn

import "testing"

func TestRegistryBasics(t *testing.T) {
	r, err := NewRegistry([]AS{
		{Number: 65001, Name: "CellCo", Country: "US", Role: RoleDedicatedCellular, Class: ClassTransitAccess},
		{Number: 65002, Name: "MixCo", Country: "DE", Role: RoleMixedOperator, Class: ClassTransitAccess},
		{Number: 65003, Name: "CloudCo", Country: "US", Role: RoleCloudHosting, Class: ClassContent},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
	a, ok := r.Lookup(65002)
	if !ok || a.Name != "MixCo" {
		t.Errorf("Lookup(65002) = %v,%v", a, ok)
	}
	if _, ok := r.Lookup(1); ok {
		t.Error("Lookup invented an AS")
	}
	// sorted by number
	all := r.All()
	for i := 1; i < len(all); i++ {
		if all[i-1].Number >= all[i].Number {
			t.Error("All() not sorted")
		}
	}
}

func TestRegistryRejects(t *testing.T) {
	if _, err := NewRegistry([]AS{{Number: 0}}); err == nil {
		t.Error("AS 0 accepted")
	}
	if _, err := NewRegistry([]AS{{Number: 5}, {Number: 5}}); err == nil {
		t.Error("duplicate AS accepted")
	}
}

func TestRoleStringsAndCellular(t *testing.T) {
	cellular := map[Role]bool{
		RoleDedicatedCellular: true,
		RoleMixedOperator:     true,
		RoleFixedISP:          false,
		RoleCloudHosting:      false,
		RoleProxyService:      false,
		RoleVPNService:        false,
		RoleEnterprise:        false,
		RoleContent:           false,
		RoleTransit:           false,
	}
	for role, want := range cellular {
		if role.IsCellularAccess() != want {
			t.Errorf("%s.IsCellularAccess() = %v, want %v", role, !want, want)
		}
		if role.String() == "" || role.String()[0] == 'R' {
			t.Errorf("%d has no string name", role)
		}
	}
	if Role(200).String() != "Role(200)" {
		t.Error("unknown role String")
	}
}

func TestClassStrings(t *testing.T) {
	if ClassTransitAccess.String() != "Transit/Access" ||
		ClassContent.String() != "Content" ||
		ClassEnterprise.String() != "Enterprise" ||
		ClassUnknown.String() != "Unknown" {
		t.Error("class strings wrong")
	}
	if Class(99).String() != "Class(99)" {
		t.Error("unknown class String")
	}
}

func TestSnapshot(t *testing.T) {
	var ases []AS
	for i := uint32(1); i <= 10; i++ {
		ases = append(ases, AS{Number: i, Class: ClassTransitAccess})
	}
	ases[4].Class = ClassUnknown // AS 5 has no class even in truth
	r, err := NewRegistry(ases)
	if err != nil {
		t.Fatal(err)
	}

	full := BuildSnapshot(r)
	if full.Class(5) != ClassUnknown {
		t.Error("unknown-class AS leaked into snapshot")
	}
	if full.Class(1) != ClassTransitAccess {
		t.Error("classified AS missing")
	}
	if full.Class(9999) != ClassUnknown {
		t.Error("absent AS not unknown")
	}
}

func TestDefaultClassFor(t *testing.T) {
	cases := map[Role]Class{
		RoleFixedISP:          ClassTransitAccess,
		RoleDedicatedCellular: ClassTransitAccess,
		RoleMixedOperator:     ClassTransitAccess,
		RoleTransit:           ClassTransitAccess,
		RoleCloudHosting:      ClassContent,
		RoleProxyService:      ClassContent,
		RoleContent:           ClassContent,
		RoleVPNService:        ClassEnterprise,
		RoleEnterprise:        ClassEnterprise,
	}
	for role, want := range cases {
		if got := DefaultClassFor(role); got != want {
			t.Errorf("DefaultClassFor(%s) = %s, want %s", role, got, want)
		}
	}
	if DefaultClassFor(Role(99)) != ClassUnknown {
		t.Error("unknown role should map to unknown class")
	}
}
