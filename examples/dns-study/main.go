// DNS study: reproduce the paper's resolver analysis (§6.3) — how mixed
// operators share recursive resolvers between cellular and fixed-line
// customers (Fig 9), and how heavily cellular clients outside the U.S.
// lean on public DNS services (Fig 10).
package main

import (
	"fmt"
	"log"

	"cellspot"
	"cellspot/internal/aschar"
	"cellspot/internal/dnsmap"
	"cellspot/internal/stats"
)

func main() {
	cfg := cellspot.DefaultConfig()
	cfg.World.Scale = 0.004
	result, err := cellspot.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Fig 9: cellular demand fraction per resolver in mixed cellular ASes.
	fracs := dnsmap.CellFractions(result.ResolverUsage, result.World.ResolverAS, result.MixedASSet())
	if len(fracs) == 0 {
		log.Fatal("no resolvers observed in mixed ASes")
	}
	sharing := dnsmap.ClassifySharing(fracs, 0.05, 0.80)
	total := float64(len(fracs))
	fmt.Printf("Resolvers in identified mixed cellular ASes: %d\n", len(fracs))
	fmt.Printf("  shared between cellular and fixed clients: %.1f%%  (paper: ~60%%)\n",
		100*float64(sharing.Shared)/total)
	fmt.Printf("  cellular-dominated: %.1f%%   fixed-only: %.1f%%  (paper: ~20%% each)\n",
		100*float64(sharing.CellOnly)/total, 100*float64(sharing.FixedOnly)/total)

	var shared []float64
	for _, f := range fracs {
		if f >= 0.05 && f <= 0.80 {
			shared = append(shared, f)
		}
	}
	if len(shared) > 0 {
		med := stats.NewECDF(shared).Quantile(0.5)
		fmt.Printf("  median shared resolver: %.0f%% cellular demand (paper: ~25%%)\n\n", 100*med)
	}

	// Fig 10: public DNS usage for the paper's selected operators.
	fmt.Println("Public DNS usage by cellular clients (paper Fig 10):")
	for _, cc := range []string{"US", "IN", "HK", "NG", "DZ"} {
		n := topOperator(result, cc)
		if n == nil {
			continue
		}
		pu := result.PublicDNS[n.ASN]
		if pu == nil {
			continue
		}
		fmt.Printf("  %s: %.1f%% public (Google %.1f%% / OpenDNS %.1f%% / Level3 %.1f%%)\n",
			cc, 100*pu.PublicShare(),
			100*pu.ProviderShare("GoogleDNS"),
			100*pu.ProviderShare("OpenDNS"),
			100*pu.ProviderShare("Level3"))
	}
	fmt.Println("\nOutside the U.S., cellular operators themselves forward to public DNS —")
	fmt.Println("which breaks DNS-based client mapping assumptions (paper, Finding 5).")
}

// topOperator returns the country's largest identified cellular AS.
func topOperator(result *cellspot.Result, cc string) *aschar.Network {
	var best *aschar.Network
	for i := range result.Networks {
		n := &result.Networks[i]
		got, ok := result.CountryOf(n.ASN)
		if !ok || got != cc {
			continue
		}
		if best == nil || n.CellDU > best.CellDU {
			best = n
		}
	}
	return best
}
