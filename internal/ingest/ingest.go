// Package ingest imports foreign Zeek-style conn logs into the cellspot
// pipeline: the typed streaming importer the ROADMAP's "run the paper's
// method on your own traffic" workload needs. Real deployments have Zeek
// (or Zeek-shaped NetFlow exports), not Akamai RUM, so this package
// normalizes heterogeneous sensor output — TSV with #fields headers, JSON
// lines, plain or gzip, one directory per sensor — into the same
// beacon.Record stream and DEMAND tallies the synthetic generators emit.
// From there the existing machinery takes over unchanged: offline
// classification, or conversion into a spool whose sealed shards the live
// aggregator folds into its window and publishes maps from.
//
// An import-time subnet policy (always-include / never-include lists, in
// the tradition of RITA's internal-subnet config) drops excluded address
// space before it can contaminate any aggregate.
package ingest

import (
	"bufio"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"cellspot/internal/beacon"
	"cellspot/internal/demand"
	"cellspot/internal/logio"
	"cellspot/internal/netaddr"
	"cellspot/internal/obs"
)

// DefaultSensor labels conn files found at the root of the ingest tree,
// outside any per-sensor subdirectory.
const DefaultSensor = "default"

// Config parameterizes an import run.
type Config struct {
	// Dir is the root of the conn-log tree (required). Conn files may sit
	// directly in Dir, or one level down in per-sensor subdirectories
	// whose names become the sensor label.
	Dir string
	// Policy is the import-time subnet filter; nil admits everything.
	Policy *Policy
	// Strict aborts on the first malformed line instead of counting and
	// skipping it.
	Strict bool
	// Metrics, when non-nil, registers the ingest metric families:
	//
	//	ingest_files_total              conn files read (per sensor)
	//	ingest_records_total            entries imported (per sensor)
	//	ingest_bad_lines_total          malformed lines skipped (per sensor)
	//	ingest_filtered_records_total   entries dropped by policy (per sensor)
	//	ingest_bytes_total              compressed file bytes consumed
	Metrics *obs.Registry
	// Logf, when non-nil, receives per-file progress lines.
	Logf func(format string, args ...any)
}

// SensorStats is one sensor's import tally.
type SensorStats struct {
	Files    int `json:"files"`
	Records  int `json:"records"`  // entries delivered past the policy
	Bad      int `json:"bad"`      // malformed lines skipped (lenient mode)
	Filtered int `json:"filtered"` // entries dropped by policy
}

// Stats reports what an import run consumed.
type Stats struct {
	Files    int
	Records  int
	Bad      int
	Filtered int
	// PerSensor is keyed by sensor label, in no particular order; use
	// Sensors for deterministic iteration.
	PerSensor map[string]*SensorStats
}

// Sensors returns the sensor labels in sorted order.
func (s *Stats) Sensors() []string {
	out := make([]string, 0, len(s.PerSensor))
	for name := range s.PerSensor {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (s *Stats) sensor(name string) *SensorStats {
	if s.PerSensor == nil {
		s.PerSensor = make(map[string]*SensorStats)
	}
	ss := s.PerSensor[name]
	if ss == nil {
		ss = &SensorStats{}
		s.PerSensor[name] = ss
	}
	return ss
}

// connFile is one discovered log file.
type connFile struct {
	sensor string
	path   string
}

// isConnFile reports whether a file name looks like a Zeek conn log:
// "conn" optionally followed by a rotation infix ("conn.2016-12-25.log",
// "conn.14:00:00-15:00:00.log"), with a .log or .jsonl suffix, optionally
// gzipped.
func isConnFile(name string) bool {
	stem := strings.TrimSuffix(name, ".gz")
	if !strings.HasSuffix(stem, ".log") && !strings.HasSuffix(stem, ".jsonl") {
		return false
	}
	return stem == "conn.log" || stem == "conn.jsonl" || strings.HasPrefix(stem, "conn.")
}

// discover lists conn files under root: directly in root (sensor
// DefaultSensor) and one level down (sensor = subdirectory name), in
// deterministic (sensor, name) order.
func discover(root string) ([]connFile, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("ingest: read dir %s: %w", root, err)
	}
	var out []connFile
	for _, e := range entries {
		if e.IsDir() {
			subEntries, err := os.ReadDir(filepath.Join(root, e.Name()))
			if err != nil {
				return nil, fmt.Errorf("ingest: read sensor dir %s: %w", e.Name(), err)
			}
			for _, se := range subEntries {
				if !se.IsDir() && isConnFile(se.Name()) {
					out = append(out, connFile{sensor: e.Name(), path: filepath.Join(root, e.Name(), se.Name())})
				}
			}
			continue
		}
		if isConnFile(e.Name()) {
			out = append(out, connFile{sensor: DefaultSensor, path: filepath.Join(root, e.Name())})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].sensor != out[j].sensor {
			return out[i].sensor < out[j].sensor
		}
		return out[i].path < out[j].path
	})
	return out, nil
}

// readConnFile streams one conn file, sniffing the format from its first
// byte: Zeek TSV starts with '#', JSON lines with '{'. Gzip is transparent
// by suffix. An empty file yields nothing.
func readConnFile(path string, lenient bool, fn func(*Entry) error) (logio.ReadStats, error) {
	f, err := os.Open(path)
	if err != nil {
		return logio.ReadStats{}, fmt.Errorf("ingest: open %s: %w", path, err)
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return logio.ReadStats{}, fmt.Errorf("ingest: gunzip %s: %w", path, err)
		}
		defer gz.Close()
		r = gz
	}
	br := bufio.NewReaderSize(r, 64<<10)
	first, err := br.Peek(1)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return logio.ReadStats{}, nil
		}
		return logio.ReadStats{}, fmt.Errorf("ingest: read %s: %w", path, err)
	}
	if first[0] == '{' {
		return logio.Decode(br, lenient, func(e Entry) error { return fn(&e) })
	}
	return DecodeTSV(br, lenient, fn)
}

// Result is an import run's aggregated output: the BEACON aggregate the
// classifier consumes and the raw per-block DEMAND weights (total bytes),
// plus the run's stats.
type Result struct {
	Beacon  *beacon.Aggregate
	Weights map[netaddr.Block]float64
	Stats   Stats
}

// Demand normalizes the byte weights into a DEMAND dataset (1,000 DU = 1%
// of observed traffic, exactly like the synthetic generator's output).
func (r *Result) Demand() (*demand.Dataset, error) {
	return demand.NewDataset(r.Weights)
}

// Import scans the configured conn-log tree and aggregates every admitted
// entry into BEACON counts and DEMAND byte weights. fn, when non-nil,
// additionally receives each admitted record in deterministic file order —
// the hook the spool converter and streaming consumers use; a single pass
// serves both.
func Import(cfg Config, fn func(beacon.Record)) (*Result, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("ingest: Config.Dir is required")
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	files, err := discover(cfg.Dir)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Beacon:  beacon.NewAggregate(),
		Weights: make(map[netaddr.Block]float64),
	}
	mBytes := cfg.Metrics.Counter("ingest_bytes_total", "Conn-log file bytes consumed (compressed size for gzip).")
	for _, cf := range files {
		ss := res.Stats.sensor(cf.sensor)
		sensorLabel := obs.L("sensor", cf.sensor)
		mFiles := cfg.Metrics.Counter("ingest_files_total", "Conn files read.", sensorLabel)
		mRecords := cfg.Metrics.Counter("ingest_records_total", "Conn entries imported.", sensorLabel)
		mBad := cfg.Metrics.Counter("ingest_bad_lines_total", "Malformed conn-log lines skipped.", sensorLabel)
		mFiltered := cfg.Metrics.Counter("ingest_filtered_records_total", "Conn entries dropped by the subnet policy.", sensorLabel)

		fileRecords, fileFiltered, fileBad := 0, 0, 0
		st, err := readConnFile(cf.path, !cfg.Strict, func(e *Entry) error {
			rec, err := e.Record()
			if err != nil {
				if cfg.Strict {
					return err
				}
				fileBad++
				return nil
			}
			if !cfg.Policy.Admit(rec.IP) {
				fileFiltered++
				return nil
			}
			fileRecords++
			res.Beacon.AddRecord(rec)
			if w := e.Weight(); w > 0 {
				res.Weights[netaddr.BlockFromAddr(rec.IP)] += w
			}
			if fn != nil {
				fn(rec)
			}
			return nil
		})
		fileBad += st.Bad
		ss.Files++
		ss.Records += fileRecords
		ss.Bad += fileBad
		ss.Filtered += fileFiltered
		res.Stats.Files++
		res.Stats.Records += fileRecords
		res.Stats.Bad += fileBad
		res.Stats.Filtered += fileFiltered
		mFiles.Inc()
		mRecords.Add(uint64(fileRecords))
		mBad.Add(uint64(fileBad))
		mFiltered.Add(uint64(fileFiltered))
		if fi, statErr := os.Stat(cf.path); statErr == nil {
			mBytes.Add(uint64(fi.Size()))
		}
		if err != nil {
			return nil, fmt.Errorf("ingest: %s: %w", cf.path, err)
		}
		logf("ingest: %s [%s]: %d records, %d bad, %d filtered",
			cf.path, cf.sensor, fileRecords, fileBad, fileFiltered)
	}
	return res, nil
}
