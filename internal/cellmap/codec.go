package cellmap

import (
	"bytes"
	"encoding/json"
	"math"
	"net/netip"
	"slices"
	"strconv"

	"cellspot/internal/beacon"
)

// The lookup wire codec: one encoder and one decoder for each schema the
// serving path carries, the batch request and the lookup and batch
// answers, following the rule of the beacon.Record codec.
//
// The encoders write byte for byte what json.Marshal writes. The
// canonical form is what they write for an answer whose strings are
// canonical (beacon.CanonicalField) and whose numbers are finite: keys in
// field order, each omitempty field present only when non-zero, no
// whitespace and no escape, optionally followed by the one newline
// WriteJSON ends a body with. The parsers accept that form and nothing
// else; the decoders send every other input to encoding/json, so decoded
// values and accept/reject are encoding/json's by construction.

// AppendJSON appends the body WriteJSON writes for v to dst: json.Marshal's
// bytes and a newline. A LookupResponse or BatchResponse takes its
// fixed-schema encoder; any other value, and one holding NaN or ±Inf, goes
// to json.Marshal, whose error it returns with dst unchanged.
func AppendJSON(dst []byte, v any) ([]byte, error) {
	out, ok := dst, false
	switch v := v.(type) {
	case LookupResponse:
		out, ok = AppendLookupResponse(dst, v)
	case BatchResponse:
		out, ok = AppendBatchResponse(dst, v)
	}
	if !ok {
		body, err := json.Marshal(v)
		if err != nil {
			return dst, err
		}
		out = append(dst, body...)
	}
	return append(out, '\n'), nil
}

// AppendLookupResponse appends r's JSON form to dst, byte for byte what
// json.Marshal(r) gives, without allocating when dst has room. It fails,
// returning dst unchanged, only when a number is NaN or ±Inf, which
// json.Marshal refuses.
func AppendLookupResponse(dst []byte, r LookupResponse) ([]byte, bool) {
	if !finite(r.Ratio) || !finite(r.DU) || slices.ContainsFunc(r.RAT, func(f float64) bool { return !finite(f) }) {
		return dst, false
	}
	dst = beacon.AppendJSONString(append(dst, `{"addr":`...), r.Addr)
	if r.Cellular {
		dst = append(dst, `,"cellular":true`...)
	} else {
		dst = append(dst, `,"cellular":false`...)
	}
	if r.Prefix != "" {
		dst = beacon.AppendJSONString(append(dst, `,"prefix":`...), r.Prefix)
	}
	if r.ASN != 0 {
		dst = beacon.AppendIntField(dst, `,"asn":`, int64(r.ASN))
	}
	if r.Country != "" {
		dst = beacon.AppendJSONString(append(dst, `,"country":`...), r.Country)
	}
	if r.Ratio != 0 {
		dst = appendFloat(append(dst, `,"ratio":`...), r.Ratio)
	}
	if r.DU != 0 {
		dst = appendFloat(append(dst, `,"du":`...), r.DU)
	}
	if len(r.RAT) > 0 {
		dst = append(dst, `,"rat":[`...)
		for i, f := range r.RAT {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendFloat(dst, f)
		}
		dst = append(dst, ']')
	}
	if r.Generation != 0 {
		dst = strconv.AppendUint(append(dst, `,"generation":`...), r.Generation, 10)
	}
	if r.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	return append(dst, '}'), true
}

// AppendBatchResponse appends r's JSON form to dst, byte for byte what
// json.Marshal(r) gives. It fails, returning dst unchanged, only when a
// result holds NaN or ±Inf.
func AppendBatchResponse(dst []byte, r BatchResponse) ([]byte, bool) {
	n := len(dst)
	dst = strconv.AppendUint(append(dst, `{"generation":`...), r.Generation, 10)
	if r.Results == nil {
		dst = append(dst, `,"results":null`...)
	} else {
		dst = append(dst, `,"results":[`...)
		for i, res := range r.Results {
			if i > 0 {
				dst = append(dst, ',')
			}
			var ok bool
			if dst, ok = AppendLookupResponse(dst, res); !ok {
				return dst[:n], false
			}
		}
		dst = append(dst, ']')
	}
	if r.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	return append(dst, '}'), true
}

// AppendBatchRequest appends the batch request for addrs to dst, byte for
// byte what json.Marshal writes for a BatchRequest whose IPs are the
// addresses' String forms (a non-nil slice, so never "null").
func AppendBatchRequest(dst []byte, addrs []netip.Addr) []byte {
	dst = append(dst, `{"ips":[`...)
	for i, a := range addrs {
		if i > 0 {
			dst = append(dst, ',')
		}
		if a.IsValid() && a.Zone() == "" {
			// Hex digits, dots and colons: nothing JSON escapes.
			dst = append(a.AppendTo(append(dst, '"')), '"')
		} else {
			dst = beacon.AppendJSONString(dst, a.String())
		}
	}
	return append(dst, "]}"...)
}

func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendFloat appends a finite f as encoding/json writes a float64: the
// shortest decimal that reads back as f, in 'f' form, or in 'e' form below
// 1e-6 and from 1e21 up, with a negative exponent's leading zero dropped.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// 1e-07 becomes 1e-7.
		n := len(dst)
		if n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// DecodeLookupResponse decodes one answer into *r, which it overwrites:
// the value and whether there is an error are those json.Unmarshal gives
// into a zero LookupResponse. A canonical body takes the fast path.
func DecodeLookupResponse(data []byte, r *LookupResponse) error {
	if lr, rest, ok := parseLookupResponse(data); ok && atEnd(rest) {
		*r = lr
		return nil
	}
	*r = LookupResponse{}
	return json.Unmarshal(data, r)
}

// DecodeBatchResponse decodes one batch answer into *r, which it
// overwrites, as json.Unmarshal would into a zero BatchResponse. A
// canonical body takes the fast path.
func DecodeBatchResponse(data []byte, r *BatchResponse) error {
	if br, ok := parseBatchResponse(data); ok {
		*r = br
		return nil
	}
	*r = BatchResponse{}
	return json.Unmarshal(data, r)
}

// atEnd reports whether rest is what may follow a canonical body: nothing,
// or one newline.
func atEnd(rest []byte) bool {
	return len(rest) == 0 || len(rest) == 1 && rest[0] == '\n'
}

// parseBatchRequest returns the addresses of a canonical batch request
// body and reports whether it was one. The strings share one allocation.
func parseBatchRequest(body []byte) ([]string, bool) {
	rest, ok := bytes.CutPrefix(body, []byte(`{"ips":[`))
	if !ok {
		return nil, false
	}
	s := string(body)
	ips := make([]string, 0, min(bytes.Count(rest, []byte{','})+1, DefaultBatchLimit+1))
	if len(rest) > 0 && rest[0] == ']' {
		rest = rest[1:]
	} else {
		sep := ""
		for {
			var v []byte
			if v, rest, ok = beacon.CanonicalField(rest, sep); !ok {
				return nil, false
			}
			end := len(s) - len(rest)
			ips = append(ips, s[end-len(v)+1:end-1])
			sep = ","
			if len(rest) > 0 && rest[0] == ']' {
				rest = rest[1:]
				break
			}
		}
	}
	if len(rest) == 0 || rest[0] != '}' || !atEnd(rest[1:]) {
		return nil, false
	}
	return ips, true
}

// parseBatchResponse decodes a canonical batch answer and reports whether
// data was one.
func parseBatchResponse(data []byte) (BatchResponse, bool) {
	var br BatchResponse
	rest, ok := bytes.CutPrefix(data, []byte(`{"generation":`))
	if !ok {
		return br, false
	}
	var gen int
	if gen, rest, ok = beacon.CanonicalInt(rest); !ok || gen < 0 {
		return br, false
	}
	if rest, ok = bytes.CutPrefix(rest, []byte(`,"results":[`)); !ok {
		return br, false
	}
	br.Generation = uint64(gen)
	br.Results = make([]LookupResponse, 0, min(bytes.Count(rest, []byte(`{"addr":`)), DefaultBatchLimit))
	if len(rest) > 0 && rest[0] == ']' {
		rest = rest[1:]
	} else {
		for {
			var lr LookupResponse
			if lr, rest, ok = parseLookupResponse(rest); !ok {
				return BatchResponse{}, false
			}
			br.Results = append(br.Results, lr)
			if len(rest) == 0 || rest[0] != ',' {
				break
			}
			rest = rest[1:]
		}
		if rest, ok = bytes.CutPrefix(rest, []byte{']'}); !ok {
			return BatchResponse{}, false
		}
	}
	rest, br.Degraded = bytes.CutPrefix(rest, []byte(`,"degraded":true`))
	if len(rest) == 0 || rest[0] != '}' || !atEnd(rest[1:]) {
		return BatchResponse{}, false
	}
	return br, true
}

// parseLookupResponse cuts one canonical answer from the front of data
// and returns it with the rest of data.
func parseLookupResponse(data []byte) (r LookupResponse, rest []byte, ok bool) {
	fail := func() (LookupResponse, []byte, bool) { return LookupResponse{}, nil, false }
	var v []byte
	if v, data, ok = beacon.CanonicalField(data, `{"addr":`); !ok {
		return fail()
	}
	r.Addr = string(v[1 : len(v)-1])
	if data, ok = bytes.CutPrefix(data, []byte(`,"cellular":false`)); !ok {
		if data, r.Cellular = bytes.CutPrefix(data, []byte(`,"cellular":true`)); !r.Cellular {
			return fail()
		}
	}
	// An omitempty field is present only when non-zero, so a present
	// string is non-empty and a present number is not 0.
	if v, rest, ok := beacon.CanonicalField(data, `,"prefix":`); ok && len(v) > 2 {
		r.Prefix, data = string(v[1:len(v)-1]), rest
	}
	if rest, ok := bytes.CutPrefix(data, []byte(`,"asn":`)); ok {
		n, rest, ok := beacon.CanonicalInt(rest)
		if !ok || n <= 0 || n > math.MaxUint32 {
			return fail()
		}
		r.ASN, data = uint32(n), rest
	}
	if v, rest, ok := beacon.CanonicalField(data, `,"country":`); ok && len(v) > 2 {
		r.Country, data = string(v[1:len(v)-1]), rest
	}
	if rest, ok := bytes.CutPrefix(data, []byte(`,"ratio":`)); ok {
		if r.Ratio, data, ok = cutFloat(rest); !ok || r.Ratio == 0 {
			return fail()
		}
	}
	if rest, ok := bytes.CutPrefix(data, []byte(`,"du":`)); ok {
		if r.DU, data, ok = cutFloat(rest); !ok || r.DU == 0 {
			return fail()
		}
	}
	if rest, ok := bytes.CutPrefix(data, []byte(`,"rat":[`)); ok {
		r.RAT = make([]float64, 0, 3)
		for {
			var f float64
			if f, rest, ok = cutFloat(rest); !ok {
				return fail()
			}
			r.RAT = append(r.RAT, f)
			if len(rest) == 0 || rest[0] != ',' {
				break
			}
			rest = rest[1:]
		}
		if data, ok = bytes.CutPrefix(rest, []byte{']'}); !ok {
			return fail()
		}
	}
	if rest, ok := bytes.CutPrefix(data, []byte(`,"generation":`)); ok {
		n, rest, ok := beacon.CanonicalInt(rest)
		if !ok || n <= 0 {
			return fail()
		}
		r.Generation, data = uint64(n), rest
	}
	data, r.Degraded = bytes.CutPrefix(data, []byte(`,"degraded":true`))
	if len(data) == 0 || data[0] != '}' {
		return fail()
	}
	return r, data[1:], true
}

// cutFloat cuts a number from the front of data when appendFloat wrote
// it: the token must read back to a finite value that appendFloat spells
// the same way, which rules out "+1", "01", ".5", "1E3" and the like.
func cutFloat(data []byte) (f float64, rest []byte, ok bool) {
	i := 0
	for i < len(data) && (data[i] >= '0' && data[i] <= '9' || data[i] == '.' || data[i] == 'e' || data[i] == '-' || data[i] == '+') {
		i++
	}
	f, err := strconv.ParseFloat(string(data[:i]), 64)
	if err != nil {
		return 0, nil, false
	}
	var buf [32]byte
	if !bytes.Equal(appendFloat(buf[:0], f), data[:i]) {
		return 0, nil, false
	}
	return f, data[i:], true
}
