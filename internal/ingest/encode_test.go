package ingest

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strconv"

	"cellspot/internal/beacon"
	"cellspot/internal/logio"
)

// connColumns is the column order TSVWriter emits: Entry's zeek tags in
// declaration order.
var connColumns = buildColumns()

func buildColumns() []string {
	var cols []string
	rt := reflect.TypeOf(Entry{})
	for i := 0; i < rt.NumField(); i++ {
		if tag := rt.Field(i).Tag.Get("zeek"); tag != "" && tag != "-" {
			cols = append(cols, tag)
		}
	}
	return cols
}

// TSVWriter writes conn entries as a Zeek-style TSV log, header included,
// to build the fixtures the reader is tested against.
type TSVWriter struct {
	bw          *bufio.Writer
	wroteHeader bool
}

// NewTSVWriter returns a TSV conn-log writer over w.
func NewTSVWriter(w io.Writer) *TSVWriter {
	return &TSVWriter{bw: bufio.NewWriterSize(w, 64<<10)}
}

func (w *TSVWriter) header() error {
	lines := []string{
		"#separator \\x09",
		"#set_separator\t,",
		"#empty_field\t" + defaultEmptyField,
		"#unset_field\t" + defaultUnsetField,
		"#path\tconn",
	}
	for _, l := range lines {
		if _, err := w.bw.WriteString(l + "\n"); err != nil {
			return err
		}
	}
	if _, err := w.bw.WriteString("#fields"); err != nil {
		return err
	}
	for _, c := range connColumns {
		if _, err := w.bw.WriteString("\t" + c); err != nil {
			return err
		}
	}
	_, err := w.bw.WriteString("\n")
	return err
}

// Write appends one entry as a TSV data line, emitting the header first if
// needed.
func (w *TSVWriter) Write(e *Entry) error {
	if !w.wroteHeader {
		if err := w.header(); err != nil {
			return err
		}
		w.wroteHeader = true
	}
	rv := reflect.ValueOf(e).Elem()
	rt := rv.Type()
	first := true
	for i := 0; i < rt.NumField(); i++ {
		if tag := rt.Field(i).Tag.Get("zeek"); tag == "" || tag == "-" {
			continue
		}
		if !first {
			if err := w.bw.WriteByte('\t'); err != nil {
				return err
			}
		}
		first = false
		if _, err := w.bw.WriteString(fieldString(rv.Field(i))); err != nil {
			return err
		}
	}
	return w.bw.WriteByte('\n')
}

// fieldString renders one field value in Zeek TSV notation.
func fieldString(v reflect.Value) string {
	switch v.Kind() {
	case reflect.Struct: // Time
		return v.Interface().(Time).epochString()
	case reflect.String:
		s := v.String()
		if s == "" {
			return defaultUnsetField
		}
		return s
	case reflect.Int, reflect.Int64:
		return strconv.FormatInt(v.Int(), 10)
	case reflect.Float64:
		return strconv.FormatFloat(v.Float(), 'f', 6, 64)
	}
	panic(fmt.Sprintf("ingest: unsupported field kind %s", v.Kind()))
}

// Close emits the trailing #close directive and flushes. The writer stays
// usable for the header-only case (an empty log is a header plus #close).
func (w *TSVWriter) Close() error {
	if !w.wroteHeader {
		if err := w.header(); err != nil {
			return err
		}
		w.wroteHeader = true
	}
	if _, err := w.bw.WriteString("#close\n"); err != nil {
		return err
	}
	return w.bw.Flush()
}

// WriteJSONL writes entries as Zeek JSON-lines output.
func WriteJSONL(w io.Writer, entries []Entry) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	enc := json.NewEncoder(bw)
	for i := range entries {
		if err := enc.Encode(&entries[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// FromRecord builds a conn entry encoding a beacon record — the inverse of
// Record. Identity fields not derivable from the record (responder, ports, proto)
// get fixed plausible values the importer ignores; byte counters default
// to zero and may be set by the caller to shape DEMAND.
func FromRecord(rec beacon.Record) Entry {
	return Entry{
		TS:       Time{rec.Time},
		OrigH:    rec.IP.String(),
		OrigP:    49152,
		RespH:    "203.0.113.10",
		RespP:    443,
		Proto:    "tcp",
		Service:  "http",
		Duration: float64(rec.PageLoadMS) / 1000,
		NetType:  rec.Conn,
		Browser:  rec.Browser,
	}
}

// WriteSpool imports the conn-log tree into a beacon-record spool under
// outDir, the input a live.Aggregator (or cellmapd -live-spool) folds, so
// the live-path tests can publish maps from foreign traffic.
func WriteSpool(cfg Config, outDir string, gzipped bool, maxPerFile int) (*Result, error) {
	spool := logio.NewSpool(outDir, logio.SpoolPrefix, gzipped, maxPerFile)
	var werr error
	res, err := Import(cfg, func(rec beacon.Record) {
		if werr != nil {
			return
		}
		var line []byte
		if line, werr = beacon.AppendRecord(nil, rec); werr == nil {
			werr = spool.WriteLine(line)
		}
	})
	if err != nil {
		spool.Close()
		return nil, err
	}
	if werr != nil {
		spool.Close()
		return nil, fmt.Errorf("ingest: write spool: %w", werr)
	}
	if err := spool.Close(); err != nil {
		return nil, fmt.Errorf("ingest: close spool: %w", err)
	}
	return res, nil
}
