package world

import (
	"hash/fnv"

	"cellspot/internal/netinfo"
)

// ratProfileFor derives an operator's radio-generation adoption profile
// from its AS identity. The derivation hashes the AS name instead of
// consuming the generation RNG streams: AS names are themselves
// deterministic functions of (seed, country, rank), so profiles are
// bit-identical at every parallelism level, and introducing them did not
// shift a single draw in the pre-existing world, beacon, or demand stages.
//
// Dedicated MNOs lead adoption (spectrum is their whole business) and
// always deploy 5G; mixed operators spread across the curve and roughly a
// quarter of them never deploy 5G in the modelled window.
func ratProfileFor(name string, dedicated bool) netinfo.RATProfile {
	h := fnv.New64a()
	h.Write([]byte(name))
	v := h.Sum64()
	p := netinfo.RATProfile{
		LagMonths: int16(v%25) - 12, // -12..+12 months around the baseline
		FiveG:     dedicated || (v>>8)%4 != 0,
	}
	if dedicated {
		p.LagMonths -= 6
	}
	return p
}
