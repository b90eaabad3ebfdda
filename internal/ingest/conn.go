package ingest

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"cellspot/internal/beacon"
)

// Time is a Zeek epoch timestamp: seconds since the Unix epoch with a
// fractional part. It parses and formats digit-exactly to nanosecond
// precision, so a record round-tripped through a conn log keeps its
// timestamp bit-identical — float64 cannot represent nanoseconds at
// 2016-era epochs, which would silently perturb day bucketing near
// midnight boundaries.
type Time struct{ time.Time }

// parseEpoch parses "sec[.frac]" into a UTC time, reading the fractional
// digits directly (padded or truncated to nanoseconds) instead of going
// through float64.
func parseEpoch(s string) (time.Time, error) {
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	intPart, fracPart, hasFrac := strings.Cut(s, ".")
	if intPart == "" || intPart[0] == '-' || intPart[0] == '+' {
		// The sign was consumed above; ParseInt must see bare digits.
		return time.Time{}, fmt.Errorf("ingest: malformed timestamp %q", s)
	}
	sec, err := strconv.ParseInt(intPart, 10, 64)
	if err != nil {
		return time.Time{}, fmt.Errorf("ingest: timestamp %q: %w", s, err)
	}
	var nsec int64
	if hasFrac {
		if fracPart == "" {
			return time.Time{}, fmt.Errorf("ingest: timestamp %q: empty fraction", s)
		}
		digits := fracPart
		if len(digits) > 9 {
			digits = digits[:9]
		}
		nsec, err = strconv.ParseInt(digits, 10, 64)
		if err != nil {
			return time.Time{}, fmt.Errorf("ingest: timestamp %q: %w", s, err)
		}
		for i := len(digits); i < 9; i++ {
			nsec *= 10
		}
	}
	if neg {
		sec, nsec = -sec, -nsec
	}
	return time.Unix(sec, nsec).UTC(), nil
}

// epochString formats the time the way parseEpoch reads it, with full
// nanosecond precision (Zeek writes 6 fractional digits; 9 is a superset
// the parser of any Zeek tooling accepts).
func (t Time) epochString() string {
	sec := t.Unix()
	nsec := t.Nanosecond()
	if sec < 0 && nsec > 0 {
		// time.Unix()/Nanosecond() split negative instants as
		// (floor, positive remainder); epoch notation needs one sign.
		sec++
		nsec = 1_000_000_000 - nsec
		if sec == 0 {
			return fmt.Sprintf("-0.%09d", nsec)
		}
	}
	return fmt.Sprintf("%d.%09d", sec, nsec)
}

// MarshalJSON writes the epoch notation as a JSON number, matching Zeek's
// JSON output format for time values.
func (t Time) MarshalJSON() ([]byte, error) {
	return []byte(t.epochString()), nil
}

// UnmarshalJSON accepts a JSON number (Zeek's format) or a string holding
// the same epoch notation.
func (t *Time) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		s = s[1 : len(s)-1]
	}
	tt, err := parseEpoch(s)
	if err != nil {
		return err
	}
	t.Time = tt
	return nil
}

// Entry is one Zeek-style conn.log record. The zeek struct tags drive the
// TSV column mapping (resolved against the file's own #fields header, so
// column order and unknown extra columns never matter); the json tags match
// Zeek's JSON-lines output of the same log.
//
// The two cellspot_* columns are a vendor extension: a sensor that knows
// the client's radio state (e.g. a RUM-instrumented edge, or a probe on
// the Gi/SGi interface) annotates each connection with the Network
// Information API token and browser family. Plain Zeek deployments simply
// lack the columns, and the importer treats the fields as absent — such
// entries still feed DEMAND tallies and beacon hit counts, they just carry
// no cellular label (exactly like a RUM beacon from a browser without the
// API).
type Entry struct {
	TS        Time    `json:"ts" zeek:"ts"`
	UID       string  `json:"uid" zeek:"uid"`
	OrigH     string  `json:"id.orig_h" zeek:"id.orig_h"`
	OrigP     int     `json:"id.orig_p" zeek:"id.orig_p"`
	RespH     string  `json:"id.resp_h" zeek:"id.resp_h"`
	RespP     int     `json:"id.resp_p" zeek:"id.resp_p"`
	Proto     string  `json:"proto" zeek:"proto"`
	Service   string  `json:"service,omitempty" zeek:"service"`
	Duration  float64 `json:"duration,omitempty" zeek:"duration"`
	OrigBytes int64   `json:"orig_bytes,omitempty" zeek:"orig_bytes"`
	RespBytes int64   `json:"resp_bytes,omitempty" zeek:"resp_bytes"`
	ConnState string  `json:"conn_state,omitempty" zeek:"conn_state"`
	OrigPkts  int64   `json:"orig_pkts,omitempty" zeek:"orig_pkts"`
	RespPkts  int64   `json:"resp_pkts,omitempty" zeek:"resp_pkts"`

	// Vendor extension columns (see type comment).
	NetType string `json:"cellspot_net_type,omitempty" zeek:"cellspot_net_type"`
	Browser string `json:"cellspot_browser,omitempty" zeek:"cellspot_browser"`
}

// Record converts the conn entry into the beacon record the classification
// pipeline consumes: the originating (client) address is the measured
// endpoint, the vendor net-type column maps to the Network Information
// token, and the connection duration stands in for page load time.
func (e *Entry) Record() (beacon.Record, error) {
	addr, err := netip.ParseAddr(e.OrigH)
	if err != nil {
		return beacon.Record{}, fmt.Errorf("ingest: id.orig_h %q: %w", e.OrigH, err)
	}
	return beacon.Record{
		Time:       e.TS.Time,
		IP:         addr.Unmap(),
		Conn:       e.NetType,
		Browser:    e.Browser,
		PageLoadMS: int(e.Duration*1000 + 0.5),
	}, nil
}

// Weight is the entry's contribution to DEMAND tallies: total bytes moved.
// Zeek logs connections, not requests, so traffic volume is the honest
// demand proxy (the paper's DEMAND dataset weighs blocks by platform
// request demand; bytes are the conn-log analogue). A negative count is
// read as 0, and the two counts are summed as floats, so two large counts
// cannot wrap to a negative sum and one bad count cannot cancel the other.
func (e *Entry) Weight() float64 {
	return float64(max(e.OrigBytes, 0)) + float64(max(e.RespBytes, 0))
}
