package cellmap

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"reflect"
	"slices"
	"testing"
)

// sameAsMarshal checks that enc appends json.Marshal's bytes for v after
// what dst holds, and fails, leaving dst as it was, exactly when
// json.Marshal fails. It returns the encoding.
func sameAsMarshal[T any](t *testing.T, v T, enc func([]byte, T) ([]byte, bool)) []byte {
	t.Helper()
	want, wantErr := json.Marshal(v)
	got, ok := enc([]byte("x"), v)
	if ok != (wantErr == nil) || !bytes.Equal(got, append([]byte("x"), want...)) {
		t.Fatalf("encode %+v:\n got %s (ok %v)\nwant x%s (%v)", v, got, ok, want, wantErr)
	}
	return got[1:]
}

// sameAsUnmarshal checks that decode gives what json.Unmarshal gives into
// a zero T: the same value, and an error exactly when it errs.
func sameAsUnmarshal[T any](t *testing.T, data []byte, decode func([]byte, *T) error) {
	t.Helper()
	var got, want T
	gotErr := decode(data, &got)
	wantErr := json.Unmarshal(data, &want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("decode %q: error %v, encoding/json %v", data, gotErr, wantErr)
	}
	if wantErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("decode %q:\n got %+v\nwant %+v", data, got, want)
	}
}

const (
	canonicalHit  = `{"addr":"10.0.1.9","cellular":true,"prefix":"10.0.0.0/23","asn":64512,"country":"DE","ratio":0.75,"du":12.5,"rat":[0.1,0.6,0.3],"generation":3}`
	canonicalMiss = `{"addr":"203.0.113.9","cellular":false,"generation":3}`
)

// FuzzLookupCodec checks the lookup answer codec against encoding/json,
// its reference: AppendLookupResponse and AppendBatchResponse write
// json.Marshal's bytes for any field values, and fail exactly when it
// does; on any input, and on those encodings, DecodeLookupResponse and
// DecodeBatchResponse give json.Unmarshal's value and err exactly when it
// errs.
func FuzzLookupCodec(f *testing.F) {
	type fields struct {
		addr, prefix, country string
		asn                   uint32
		ratio, du             float64
		rat                   [3]float64
		nrat                  uint8
		gen                   uint64
		cellular, degraded    bool
		data                  string
	}
	for _, s := range []fields{
		{addr: "10.0.1.9", prefix: "10.0.0.0/23", country: "DE", asn: 64512, ratio: 0.75, du: 12.5, rat: [3]float64{0.1, 0.6, 0.3}, nrat: 3, gen: 3, cellular: true, data: canonicalHit},
		{addr: "203.0.113.9", gen: 3, data: canonicalMiss},
		{addr: "2001:db8::1", gen: math.MaxUint64, degraded: true, data: canonicalMiss + "\n"},
		{addr: "x", ratio: math.NaN(), data: canonicalHit + "\n\n"},
		{addr: "x", du: math.Inf(1), data: " " + canonicalHit},
		{addr: "x", rat: [3]float64{0, math.Inf(-1)}, nrat: 2, data: `{"addr":"10.0.1.9","cellular":true,"ratio":0}`},
		{addr: "x", ratio: math.Copysign(0, -1), du: 5e-324, rat: [3]float64{math.Copysign(0, -1), math.SmallestNonzeroFloat64, 2.2250738585072014e-308}, nrat: 3, data: `{"addr":"x","cellular":true,"ratio":-0}`},
		{addr: "x", ratio: 1e-6, du: 9.999999999999999e-7, rat: [3]float64{1e21, 9.999999999999999e20, -1e-7}, nrat: 3, data: `{"addr":"x","cellular":false,"ratio":1e-7,"du":1e+21}`},
		{addr: "x", ratio: math.MaxFloat64, du: -123456789.125, nrat: 4, data: `{"addr":"x","cellular":false,"ratio":1E-7}`},
		{addr: "a\"b\\c\n\t\x01", prefix: "<p>&amp;", country: "\xff\xfe", data: `{"addr":"a\u0041","cellular":false}`},
		{addr: "\u2028\u2029ü", prefix: "fe80::1%eth0", data: `{"addr":"x","cellular":false,"rat":[]}`},
		{addr: "", asn: math.MaxUint32, gen: 1, data: `{"addr":"x","cellular":false,"asn":4294967296}`},
		{data: `{"addr":"x","cellular":false,"asn":-1}`},
		{data: `{"addr":"x","cellular":false,"asn":01}`},
		{data: `{"addr":"x","cellular":false,"ratio":.5}`},
		{data: `{"addr":"x","cellular":false,"ratio":+1}`},
		{data: `{"addr":"x","cellular":false,"ratio":1.}`},
		{data: `{"addr":"x","cellular":false,"ratio":0.50}`},
		{data: `{"addr":"x","cellular":false,"ratio":1e400}`},
		{data: `{"addr":"x","cellular":true,"cellular":false}`},
		{data: `{"addr":"x","prefix":"p","cellular":true}`},
		{data: `{"Addr":"x","cellular":false}`},
		{data: `{"addr":"x","cellular":false,"extra":1}`},
		{data: `{"addr":"x","cellular":false,"degraded":false}`},
		{data: `{"addr":"x","cellular":false,"prefix":""}`},
		{data: `{"addr":"x","cellular":false,"generation":0}`},
		{data: `{"addr":"x","cellular":false,"rat":null}`},
		{data: `{"addr":"x","cellular":false,"rat":[1,2,]}`},
		{data: `{"generation":3,"results":[` + canonicalHit + `,` + canonicalMiss + `]}` + "\n"},
		{data: `{"generation":0,"results":[],"degraded":true}`},
		{data: `{"generation":3,"results":null}`},
		{data: `{"generation":3,"results":[` + canonicalMiss + `,]}`},
		{data: `{"generation":3,"results":[` + canonicalMiss + `]}{}`},
		{data: `{"generation":-1,"results":[]}`},
		{data: `{"generation":99999999999999999999,"results":[]}`},
		{data: `null`}, {data: `{}`}, {data: `[]`}, {data: ``}, {data: `{"addr":`},
	} {
		f.Add(s.addr, s.prefix, s.country, s.asn, s.ratio, s.du, s.rat[0], s.rat[1], s.rat[2], s.nrat, s.gen, s.cellular, s.degraded, []byte(s.data))
	}
	f.Fuzz(func(t *testing.T, addr, prefix, country string, asn uint32, ratio, du, r0, r1, r2 float64, nrat uint8, gen uint64, cellular, degraded bool, data []byte) {
		lr := LookupResponse{Addr: addr, Cellular: cellular, Prefix: prefix, ASN: asn, Country: country,
			Ratio: ratio, DU: du, Generation: gen, Degraded: degraded}
		switch k := nrat % 5; k {
		case 0:
		case 4:
			lr.RAT = []float64{}
		default:
			lr.RAT = []float64{r0, r1, r2}[:k]
		}
		inputs := [][]byte{data}
		enc := sameAsMarshal(t, lr, AppendLookupResponse)
		inputs = append(inputs, enc, append(enc, '\n'))
		for _, br := range []BatchResponse{
			{Generation: gen, Results: []LookupResponse{lr, {Addr: country, Degraded: degraded}}, Degraded: degraded},
			{Generation: gen, Results: []LookupResponse{}},
			{Generation: gen},
		} {
			enc := sameAsMarshal(t, br, AppendBatchResponse)
			inputs = append(inputs, append(enc, '\n'))
		}
		for _, in := range inputs {
			sameAsUnmarshal(t, in, DecodeLookupResponse)
			sameAsUnmarshal(t, in, DecodeBatchResponse)
		}
	})
}

// decodeBatchRef is DecodeBatch as it was before the codec, with the
// json.Decoder reading the request body itself: the reference
// FuzzBatchRequestCodec holds DecodeBatch to.
func decodeBatchRef(w http.ResponseWriter, r *http.Request) ([]netip.Addr, []string, bool) {
	if r.URL.Query().Has("gen") {
		WriteError(w, http.StatusBadRequest,
			"gen parameter is not supported on batch lookups; use GET /v1/lookup?ip=X&gen=N per address")
		return nil, nil, false
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBatchBody)
	var req BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			WriteError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("batch body exceeds %d bytes", tooBig.Limit))
			return nil, nil, false
		}
		WriteError(w, http.StatusBadRequest, "bad batch request: "+err.Error())
		return nil, nil, false
	}
	if len(req.IPs) == 0 {
		WriteError(w, http.StatusBadRequest, "empty batch: body must carry a non-empty ips array")
		return nil, nil, false
	}
	if len(req.IPs) > DefaultBatchLimit {
		WriteError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch of %d addresses exceeds limit %d", len(req.IPs), DefaultBatchLimit))
		return nil, nil, false
	}
	addrs := make([]netip.Addr, 0, len(req.IPs))
	for i, s := range req.IPs {
		a, err := netip.ParseAddr(s)
		if err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad ip at index %d: %v", i, err))
			return nil, nil, false
		}
		addrs = append(addrs, a)
	}
	return addrs, req.IPs, true
}

// FuzzBatchRequestCodec checks DecodeBatch against decodeBatchRef on any
// body, with and without gen in the query and padded past maxBatchBody
// before or after the body: the same status, error body, addresses and
// echoed strings. Where the body is a valid batch, AppendBatchRequest of
// its addresses writes json.Marshal's bytes, which parseBatchRequest
// takes back to the addresses' String forms.
func FuzzBatchRequestCodec(f *testing.F) {
	over := make([]string, DefaultBatchLimit+1)
	for i := range over {
		over[i] = fmt.Sprintf("10.0.%d.%d", i>>8, i&255)
	}
	overBody, _ := json.Marshal(BatchRequest{IPs: over})
	for _, s := range []string{
		`{"ips":["10.0.0.1","2001:db8::1"]}`,
		`{"ips":["10.0.0.1","2001:db8::1"]}` + "\n",
		`{"ips":["10.0.0.1"]}` + "\n\n",
		`{"ips":["10.0.0.1"]}garbage`,
		`{"ips":["10.0.0.1"]} {"ips":["10.0.0.2"]}`,
		` {"ips":["10.0.0.1"]}`,
		`{"ips": ["10.0.0.1"]}`,
		`{"ips":["10.0.0.1",]}`,
		`{"ips":["10.0.0.1""10.0.0.2"]}`,
		`{"ips":[]}`, `{"ips":null}`, `{}`, ``, `{nope`, `null`, `[]`,
		`{"IPS":["10.0.0.1"]}`,
		`{"ips":["10.0.0.1"],"ips":["10.0.0.2"]}`,
		`{"ips":["10.0.0.1"],"extra":1}`,
		`{"ips":["10.0.0.\u0031"]}`,
		`{"ips":["fe80::1%eth0","fe80::1%\u003c"]}`,
		`{"ips":["::ffff:1.2.3.4","010.0.0.1"]}`,
		`{"ips":["not-an-ip"]}`,
		`{"ips":["<>&"]}`,
		"{\"ips\":[\"\xff\"]}",
		string(overBody),
	} {
		f.Add([]byte(s), false, uint8(0))
		f.Add([]byte(s), true, uint8(0))
		f.Add([]byte(s), false, uint8(1))
		f.Add([]byte(s), false, uint8(2))
	}
	f.Fuzz(func(t *testing.T, body []byte, gen bool, pad uint8) {
		// Padding is a quarter of the inputs: a body past the bound costs
		// a megabyte a run.
		switch pad % 8 {
		case 1:
			body = slices.Concat(body, bytes.Repeat([]byte{' '}, maxBatchBody))
		case 2:
			body = slices.Concat(bytes.Repeat([]byte{' '}, maxBatchBody), body)
		}
		target := "/v1/lookup/batch"
		if gen {
			target += "?gen=1"
		}
		type outcome struct {
			code  int
			body  string
			addrs []netip.Addr
			names []string
			ok    bool
		}
		run := func(decode func(http.ResponseWriter, *http.Request) ([]netip.Addr, []string, bool)) outcome {
			w := httptest.NewRecorder()
			addrs, names, ok := decode(w, httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body)))
			return outcome{w.Code, w.Body.String(), addrs, names, ok}
		}
		got, want := run(DecodeBatch), run(decodeBatchRef)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("body %.200q:\n got %+v\nwant %+v", body, got, want)
		}
		if !want.ok {
			return
		}
		strs := make([]string, len(want.addrs))
		for i, a := range want.addrs {
			strs[i] = a.String()
		}
		ref, err := json.Marshal(BatchRequest{IPs: strs})
		if err != nil {
			t.Fatal(err)
		}
		enc := AppendBatchRequest([]byte("x"), want.addrs)
		if !bytes.Equal(enc[1:], ref) || enc[0] != 'x' {
			t.Fatalf("AppendBatchRequest(%v):\n got %s\nwant x%s", want.addrs, enc, ref)
		}
		ips, ok := parseBatchRequest(ref)
		if ok && !reflect.DeepEqual(ips, strs) {
			t.Fatalf("parseBatchRequest(%s) = %q, want %q", ref, ips, strs)
		}
		if !ok && !slices.ContainsFunc(want.addrs, func(a netip.Addr) bool { return a.Zone() != "" }) {
			t.Fatalf("parseBatchRequest refused %s, which holds no zone", ref)
		}
	})
}

// benchBatch is a 64-address batch answer against allocTestMap: every
// fourth address a hit.
func benchBatch(b *testing.B) BatchResponse {
	m := allocTestMap(b)
	br := BatchResponse{Generation: 3}
	for i := 0; i < 64; i++ {
		a := netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})
		if i%4 == 0 {
			a = netip.AddrFrom4([4]byte{10, 0, byte(i), 9})
		}
		br.Results = append(br.Results, LookupAddr(m, 3, a, a.String()))
	}
	return br
}

func BenchmarkEncodeBatchResponse(b *testing.B) {
	br := benchBatch(b)
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte // reused, as WriteJSON reuses its pooled buffer
		for b.Loop() {
			var err error
			if buf, err = AppendJSON(buf[:0], br); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := json.Marshal(br); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDecodeBatchResponse(b *testing.B) {
	body, err := AppendJSON(nil, benchBatch(b))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var br BatchResponse
			if err := DecodeBatchResponse(body, &br); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var br BatchResponse
			if err := json.Unmarshal(body, &br); err != nil {
				b.Fatal(err)
			}
		}
	})
}
