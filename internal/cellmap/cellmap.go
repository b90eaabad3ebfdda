// Package cellmap builds the deliverable artifact of the paper's method: a
// queryable, serializable map of cellular IP space. Detected /24 and /48
// blocks are grouped per AS, merged into minimal covering CIDRs, annotated
// with country, demand and mean cellular ratio, and indexed in a radix trie
// for per-address lookups — the MaxMind-style dataset a CDN or content
// provider would publish and consume for request routing and performance
// triage.
package cellmap

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/netip"
	"os"
	"slices"

	"cellspot/internal/beacon"
	"cellspot/internal/classify"
	"cellspot/internal/demand"
	"cellspot/internal/logio"
	"cellspot/internal/lpm"
	"cellspot/internal/netaddr"
)

// Entry is one published cellular prefix.
type Entry struct {
	Prefix  netip.Prefix `json:"prefix"`
	ASN     uint32       `json:"asn"`
	Country string       `json:"country,omitempty"`
	// Ratio is the hit-weighted mean cellular ratio of the blocks the
	// prefix covers; DU their combined demand units.
	Ratio float64 `json:"ratio"`
	DU    float64 `json:"du"`
	// RAT, when present, is the prefix's radio-generation traffic split
	// [3G, 4G, 5G] as shares of RAT-labeled cellular hits (indexed by
	// netinfo.RAT). Nil on maps built from logs predating the RAT column;
	// readers treat an absent column as a legacy map, so old and new
	// generations serve side by side from one history index.
	RAT []float64 `json:"rat,omitempty"`
}

// Map is a complete cellular-space dataset.
type Map struct {
	// Threshold is the classifier operating point the map was built at.
	Threshold float64 `json:"threshold"`
	// Period labels the collection window, e.g. "2016-12".
	Period string `json:"period"`

	entries []Entry
	// idx is the flat longest-prefix matcher over entries: immutable,
	// pointer-free, zero allocations per lookup. prefixStr caches each
	// entry's textual prefix so the request path never re-stringifies.
	idx       *lpm.Matcher
	prefixStr []string
}

// Inputs bundles the measurement data a map is built from.
type Inputs struct {
	Detected  netaddr.Set
	Beacon    *beacon.Aggregate
	Demand    *demand.Dataset
	ASOf      func(netaddr.Block) (uint32, bool)
	CountryOf func(uint32) (string, bool)
}

// Build assembles a map from a classification run. Blocks that cannot be
// mapped to an AS are dropped (they could not be published usefully).
func Build(threshold float64, period string, in Inputs) (*Map, error) {
	byAS := make(map[uint32][]netaddr.Block)
	for b := range in.Detected.All() {
		a, ok := in.ASOf(b)
		if !ok {
			continue
		}
		byAS[a] = append(byAS[a], b)
	}
	m := &Map{Threshold: threshold, Period: period}
	for _, a := range slices.Sorted(maps.Keys(byAS)) {
		country := ""
		if in.CountryOf != nil {
			country, _ = in.CountryOf(a)
		}
		for _, p := range netaddr.AggregateBlocks(byAS[a]) {
			e := Entry{Prefix: p, ASN: a, Country: country}
			blocks, ok := netaddr.ExpandPrefix(p)
			if !ok {
				return nil, fmt.Errorf("cellmap: cannot expand %s", p)
			}
			var hits, cells int
			for _, b := range blocks {
				if in.Demand != nil {
					e.DU += in.Demand.DU(b)
				}
				if in.Beacon != nil {
					if c, ok := in.Beacon.Get(b); ok {
						hits += c.API
						cells += c.Cell
					}
				}
			}
			if hits > 0 {
				e.Ratio = float64(cells) / float64(hits)
			}
			if shares, ok := classify.RATShares(in.Beacon, blocks); ok {
				e.RAT = shares[:]
			}
			m.entries = append(m.entries, e)
		}
	}
	m.sortEntries()
	m.index()
	return m, nil
}

func (m *Map) sortEntries() {
	slices.SortFunc(m.entries, func(x, y Entry) int {
		return cmp.Or(x.Prefix.Addr().Compare(y.Prefix.Addr()), cmp.Compare(x.Prefix.Bits(), y.Prefix.Bits()))
	})
}

func (m *Map) index() {
	es := make([]lpm.Entry, len(m.entries))
	m.prefixStr = make([]string, len(m.entries))
	for i, e := range m.entries {
		es[i] = lpm.Entry{Prefix: e.Prefix, Value: int32(i)}
		m.prefixStr[i] = e.Prefix.String()
	}
	// Prefixes are valid, masked, and deduplicated by construction —
	// Build and Read both guarantee it — so a build failure here is a
	// program bug, not bad input.
	idx, err := lpm.Build(es)
	if err != nil {
		panic(fmt.Sprintf("cellmap: index: %v", err))
	}
	m.idx = idx
}

// lookupIdx resolves addr to an entries index with zero allocations; it
// is the hot core under Lookup and LookupAddr. A never-indexed map (the
// Empty placeholder) misses everything.
func (m *Map) lookupIdx(addr netip.Addr) (int, bool) {
	i, ok := m.idx.Lookup(addr)
	return int(i), ok
}

// Len returns the number of published prefixes.
func (m *Map) Len() int { return len(m.entries) }

// Entries returns the published prefixes in address order. Callers must
// not mutate the slice.
func (m *Map) Entries() []Entry { return m.entries }

// HasRAT reports whether any entry carries the per-RAT traffic split —
// i.e. the map was built from logs with the RAT column. Publishers record
// it in generation metadata so the history index can tell RAT-aware and
// legacy generations apart without loading them.
func (m *Map) HasRAT() bool {
	for _, e := range m.entries {
		if e.RAT != nil {
			return true
		}
	}
	return false
}

// TotalDU returns the demand the map covers.
func (m *Map) TotalDU() float64 {
	s := 0.0
	for _, e := range m.entries {
		s += e.DU
	}
	return s
}

// Lookup reports whether addr falls inside published cellular space and,
// when it does, the covering entry.
func (m *Map) Lookup(addr netip.Addr) (Entry, bool) {
	i, ok := m.lookupIdx(addr)
	if !ok {
		return Entry{}, false
	}
	return m.entries[i], true
}

// header is the serialized first line of a map file.
type header struct {
	Format    string  `json:"format"`
	Threshold float64 `json:"threshold"`
	Period    string  `json:"period"`
	Entries   int     `json:"entries"`
}

const formatName = "cellspot-map/1"

// Write serializes the map as JSONL: a header line followed by one entry
// per line.
func (m *Map) Write(w io.Writer) error {
	lw := logio.NewWriter(w)
	if err := lw.Write(header{Format: formatName, Threshold: m.Threshold, Period: m.Period, Entries: len(m.entries)}); err != nil {
		return err
	}
	for _, e := range m.entries {
		if err := lw.Write(e); err != nil {
			return err
		}
	}
	return lw.Flush()
}

// WriteFile writes the map to a new file at path.
func (m *Map) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Stats summarizes a serialized map from its header line alone.
type Stats struct {
	Period    string
	Threshold float64
	Entries   int
}

// ReadStats decodes just the header of the map file at path without
// loading entries — the cheap metadata path the history index takes for
// generations whose meta sidecar is missing or malformed.
func ReadStats(path string) (Stats, error) {
	return readFile(path, func(r io.Reader) (Stats, error) {
		_, hdr, err := scanHeader(r)
		return Stats{Period: hdr.Period, Threshold: hdr.Threshold, Entries: hdr.Entries}, err
	})
}

// ReadFile loads the map file at path.
func ReadFile(path string) (*Map, error) {
	return readFile(path, Read)
}

// readFile is the one place a map file is opened for reading.
func readFile[T any](path string, read func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	return read(f)
}

// scanHeader reads and checks a serialized map's header line, returning
// the scanner positioned at the first entry.
func scanHeader(r io.Reader) (*bufio.Scanner, header, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, header{}, fmt.Errorf("cellmap: read header: %w", err)
		}
		return nil, header{}, fmt.Errorf("cellmap: empty input")
	}
	var hdr header
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, header{}, fmt.Errorf("cellmap: parse header: %w", err)
	}
	if hdr.Format != formatName {
		return nil, header{}, fmt.Errorf("cellmap: unknown format %q", hdr.Format)
	}
	return sc, hdr, nil
}

// Read deserializes a map written by Write and rebuilds the lookup index.
func Read(r io.Reader) (*Map, error) {
	sc, hdr, err := scanHeader(r)
	if err != nil {
		return nil, err
	}
	m := &Map{Threshold: hdr.Threshold, Period: hdr.Period}
	line := 1
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var e Entry
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("cellmap: line %d: %w", line, err)
		}
		if !e.Prefix.IsValid() {
			return nil, fmt.Errorf("cellmap: line %d: invalid prefix", line)
		}
		// Canonical form only: a prefix with host bits set would collide
		// with its masked twin in the index while comparing unequal here.
		if e.Prefix != e.Prefix.Masked() {
			return nil, fmt.Errorf("cellmap: line %d: prefix %s has host bits set", line, e.Prefix)
		}
		// The RAT column is optional (legacy maps omit it) but when
		// present it must be a complete, sane share vector.
		if e.RAT != nil {
			if len(e.RAT) != 3 {
				return nil, fmt.Errorf("cellmap: line %d: RAT column has %d shares, want 3", line, len(e.RAT))
			}
			for _, s := range e.RAT {
				if s < 0 || s > 1 {
					return nil, fmt.Errorf("cellmap: line %d: RAT share %v out of [0,1]", line, s)
				}
			}
		}
		m.entries = append(m.entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("cellmap: scan: %w", err)
	}
	if len(m.entries) != hdr.Entries {
		return nil, fmt.Errorf("cellmap: header promises %d entries, file has %d (truncated?)",
			hdr.Entries, len(m.entries))
	}
	m.sortEntries()
	// Duplicate prefixes would silently shadow each other in the index
	// (last insert wins), so a corrupt or hand-edited file could serve
	// whichever entry happened to sort last. Reject instead of guessing.
	for i := 1; i < len(m.entries); i++ {
		if m.entries[i].Prefix == m.entries[i-1].Prefix {
			return nil, fmt.Errorf("cellmap: duplicate block %s", m.entries[i].Prefix)
		}
	}
	m.index()
	return m, nil
}
