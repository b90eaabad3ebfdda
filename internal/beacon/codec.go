package beacon

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"time"
	"unicode/utf8"
)

// The Record codec: one encoder and one decoder for the JSON line the
// collector spools, the shipper ships and the aggregation plane folds.
//
// AppendRecord writes exactly what json.Marshal writes. The canonical
// line is what it writes for a record whose strings are printable ASCII
// with no '"', '\\', '<', '>' or '&':
//
//	{"ts":"…","ip":"…"[,"conn":"…"][,"rat":"…"],"browser":"…","plt_ms":N}
//
// with conn and rat present only when non-empty, no whitespace, no escape
// and plt_ms a JSON integer. ParseCanonical accepts that line and nothing
// else. DecodeRecord sends every other input to encoding/json, so decoded
// values and accept/reject are those of json.Unmarshal by construction:
// the fast path only ever sees input whose meaning has one reading, and
// it gives ts and ip to the same methods encoding/json calls.

// AppendRecord appends r's JSON form to dst, byte for byte what
// json.Marshal(r) gives. It fails, returning dst unchanged, only when
// r.Time has no RFC 3339 form (a year outside 0–9999), which json.Marshal
// refuses too.
func AppendRecord(dst []byte, r Record) ([]byte, error) {
	n := len(dst)
	dst = append(dst, `{"ts":"`...)
	dst, err := r.Time.AppendText(dst)
	if err != nil {
		return dst[:n], err
	}
	dst = append(dst, `","ip":`...)
	if r.IP.Zone() == "" {
		// An address without a zone formats as hex digits, dots and
		// colons, none of which JSON escapes.
		dst = append(dst, '"')
		dst = append(r.IP.AppendTo(dst), '"')
	} else {
		dst = AppendJSONString(dst, r.IP.String())
	}
	if r.Conn != "" {
		dst = AppendJSONString(append(dst, `,"conn":`...), r.Conn)
	}
	if r.RAT != "" {
		dst = AppendJSONString(append(dst, `,"rat":`...), r.RAT)
	}
	dst = AppendJSONString(append(dst, `,"browser":`...), r.Browser)
	dst = AppendIntField(dst, `,"plt_ms":`, int64(r.PageLoadMS))
	return append(dst, '}'), nil
}

// DecodeRecord decodes one JSON value into *r, which it overwrites: the
// record and whether there is an error are those json.Unmarshal gives
// into a zero Record. A canonical line takes ParseCanonical's fast path;
// anything else goes through encoding/json.
func DecodeRecord(data []byte, r *Record) error {
	if rec, ok := ParseCanonical(data); ok {
		*r = rec
		return nil
	}
	*r = Record{}
	return json.Unmarshal(data, r)
}

// Replay gives the bytes a read returned, then the read's error (io.EOF
// when the read ended cleanly). A caller that read a body whole for the
// fast path hands its fallback decoder this reader, so the decoder sees
// what reading the body itself would have shown it: a json.Decoder stops
// at the end of its first value, so whether it meets the error depends on
// how far into the bytes that value runs.
func Replay(read []byte, err error) io.Reader {
	return io.MultiReader(bytes.NewReader(read), failReader{err})
}

type failReader struct{ err error }

func (f failReader) Read([]byte) (int, error) {
	if f.err == nil {
		return 0, io.EOF
	}
	return 0, f.err
}

// ParseCanonical decodes data when it is exactly a canonical record line
// (see AppendRecord), with no trailing newline, and reports whether it
// was. A false return says nothing about whether data is a valid record;
// only that encoding/json must decide.
func ParseCanonical(data []byte) (Record, bool) {
	l, ok := cutCanonical(data)
	var r Record
	if !ok || r.Time.UnmarshalJSON(l.ts) != nil || r.IP.UnmarshalText(l.ip) != nil {
		return Record{}, false
	}
	r.Conn, r.RAT, r.Browser, r.PageLoadMS = string(l.conn), string(l.rat), string(l.browser), l.pltMS
	return r, true
}

// CanonicalTime reads ts alone from a line in the canonical form, without
// decoding the other fields, and reports whether it could. The line has
// one reading and one ts key, so the time is the one encoding/json gives
// for ts, whether or not the rest would make a valid record.
func CanonicalTime(data []byte) (time.Time, bool) {
	l, ok := cutCanonical(data)
	var t time.Time
	if !ok || t.UnmarshalJSON(l.ts) != nil {
		return time.Time{}, false
	}
	return t, true
}

// canonicalLine is a line in the canonical form cut into its values:
// ts with its quotes, as Time.UnmarshalJSON takes it, the other strings
// without.
type canonicalLine struct {
	ts, ip, conn, rat, browser []byte
	pltMS                      int
}

// cutCanonical cuts data into its values when it has the canonical form.
func cutCanonical(data []byte) (l canonicalLine, ok bool) {
	var v []byte
	if l.ts, data, ok = CanonicalField(data, `{"ts":`); !ok {
		return l, false
	}
	if v, data, ok = CanonicalField(data, `,"ip":`); !ok {
		return l, false
	}
	l.ip = v[1 : len(v)-1]
	// conn and rat are omitted when empty, so a present one is non-empty.
	if v, rest, ok := CanonicalField(data, `,"conn":`); ok && len(v) > 2 {
		l.conn, data = v[1:len(v)-1], rest
	}
	if v, rest, ok := CanonicalField(data, `,"rat":`); ok && len(v) > 2 {
		l.rat, data = v[1:len(v)-1], rest
	}
	if v, data, ok = CanonicalField(data, `,"browser":`); !ok {
		return l, false
	}
	l.browser = v[1 : len(v)-1]
	if data, ok = bytes.CutPrefix(data, []byte(`,"plt_ms":`)); !ok {
		return l, false
	}
	if l.pltMS, data, ok = CanonicalInt(data); !ok || len(data) != 1 || data[0] != '}' {
		return l, false
	}
	return l, true
}

// plain marks the bytes a canonical string holds: printable ASCII but
// the quote, the backslash and the three bytes json.Marshal escapes for
// HTML.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// CanonicalField cuts key and the canonical string after it from data: a
// quoted run of printable ASCII holding no '"', '\\', '<', '>' or '&', so
// one that AppendJSONString writes unescaped and encoding/json reads back
// unchanged. It returns the string with its quotes and the rest of data.
func CanonicalField(data []byte, key string) (quoted, rest []byte, ok bool) {
	data, ok = bytes.CutPrefix(data, []byte(key))
	if !ok || len(data) == 0 || data[0] != '"' {
		return nil, nil, false
	}
	i := 1
	for i < len(data) && plain[data[i]] {
		i++
	}
	if i == len(data) || data[i] != '"' {
		return nil, nil, false
	}
	return data[:i+1], data[i+1:], true
}

// CanonicalInt cuts an integer as AppendIntField writes it: an optional
// minus sign, then digits with no leading zero, and not "-0". Eighteen
// digits at most, so it cannot overflow; longer ones are left to
// encoding/json.
func CanonicalInt(data []byte) (n int, rest []byte, ok bool) {
	neg := len(data) > 0 && data[0] == '-'
	if neg {
		data = data[1:]
	}
	i := 0
	for i < len(data) && data[i] >= '0' && data[i] <= '9' {
		n = n*10 + int(data[i]-'0')
		i++
	}
	if i == 0 || i > 18 || data[0] == '0' && (i > 1 || neg) {
		return 0, nil, false
	}
	if neg {
		n = -n
	}
	return n, data[i:], true
}

// AppendIntField appends a JSON object key, given with its quotes, colon
// and any leading comma, then n.
func AppendIntField(dst []byte, key string, n int64) []byte {
	return strconv.AppendInt(append(dst, key...), n, 10)
}

// AppendJSONString appends s quoted as encoding/json quotes it: '<', '>'
// and '&' escaped for HTML, invalid UTF-8 replaced by U+FFFD, and U+2028
// and U+2029 escaped.
func AppendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), "\\ufffd"...)
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}
