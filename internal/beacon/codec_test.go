package beacon

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"testing"
	"time"

	"cellspot/internal/world"
)

// sameRecord is == on records, except for the zone of a time: every parse
// of a non-UTC offset makes its own *time.Location, so two decodes of one
// line hold different pointers. Times compare by instant, zone name and
// offset instead.
func sameRecord(a, b Record) bool {
	ta, tb := a.Time, b.Time
	a.Time, b.Time = time.Time{}, time.Time{}
	na, oa := ta.Zone()
	nb, ob := tb.Zone()
	return a == b && ta.Equal(tb) && na == nb && oa == ob
}

const canonicalSeed = `{"ts":"2016-12-01T10:20:30Z","ip":"10.1.2.3","conn":"cellular","rat":"4g","browser":"chrome-mobile","plt_ms":812}`

// FuzzRecordCodec checks the codec against encoding/json, its reference:
// on any input, DecodeRecord errs exactly when json.Unmarshal into a
// Record does and otherwise gives the same record; every record that
// decodes encodes through AppendRecord to json.Marshal's bytes; and where
// CanonicalTime answers, json.Unmarshal of ts alone gives the same time.
func FuzzRecordCodec(f *testing.F) {
	for _, s := range []string{
		canonicalSeed,
		`{"ts":"2016-12-01T00:00:00Z","ip":"2001:db8::1","browser":"","plt_ms":0}`,
		`{"ts":"2016-12-01T00:00:00Z","ip":"","browser":"x","plt_ms":-5}`,
		`{"ts":"2016-12-01T00:00:00.123456789+05:30","ip":"::ffff:1.2.3.4","browser":"x","plt_ms":1}`,
		`{"ts":"0001-01-01T00:00:00Z","ip":"fe80::1%eth0","browser":"x","plt_ms":1}`,
		`{"ts":"2016-12-01T00:00:00Z","ip":"fe80::1%\u003c\"","browser":"x","plt_ms":1}`,
		canonicalSeed + "\r\n",
		canonicalSeed + "\n",
		" " + canonicalSeed,
		`{"ts": "2016-12-01T00:00:00Z","ip":"10.0.0.1","browser":"x","plt_ms":1}`,
		`{"ts":"2016-12-01T00:00:00Z","ip":"10.0.0.1","browser":"a\u0041\n\\\/","plt_ms":1}`,
		`{"ts":"2016\u002d12-01T00:00:00Z","ip":"10.0.0.1","browser":"x","plt_ms":1}`,
		`{"ip":"10.0.0.1","ts":"2016-12-01T00:00:00Z","browser":"x","plt_ms":1}`,
		`{"ts":"2016-12-01T00:00:00Z","ip":"10.0.0.1","rat":"4g","conn":"cellular","browser":"x","plt_ms":1}`,
		`{"ts":"2016-12-01T00:00:00Z","ts":"2017-01-01T00:00:00Z","ip":"10.0.0.1","browser":"x","plt_ms":1}`,
		`{"ts":"2016-12-01T00:00:00Z","ip":"10.0.0.1","browser":"x","plt_ms":1,"plt_ms":2}`,
		`{"TS":"2016-12-01T00:00:00Z","Ip":"10.0.0.1","BROWSER":"x","plt_MS":1}`,
		`{"ts":"2016-12-01T00:00:00Z","ip":"10.0.0.1","conn":"","rat":"","browser":"x","plt_ms":1}`,
		`{"ts":"2016-12-01T00:00:00Z","ip":"10.0.0.1","browser":"x","plt_ms":-0}`,
		`{"ts":"2016-12-01T00:00:00Z","ip":"10.0.0.1","browser":"x","plt_ms":01}`,
		`{"ts":"2016-12-01T00:00:00Z","ip":"10.0.0.1","browser":"x","plt_ms":1e3}`,
		`{"ts":"2016-12-01T00:00:00Z","ip":"10.0.0.1","browser":"x","plt_ms":1.0}`,
		`{"ts":"2016-12-01T00:00:00Z","ip":"10.0.0.1","browser":"x","plt_ms":999999999999999999}`,
		`{"ts":"2016-12-01T00:00:00Z","ip":"10.0.0.1","browser":"x","plt_ms":99999999999999999999}`,
		`{"ts":"2016-12-01T00:00:00Z","ip":"10.0.0.1","browser":"x","plt_ms":-9223372036854775808}`,
		`{"ts":"2016-12-01T00:00:00Z","ip":"10.0.0.1","browser":"ü\u2028","plt_ms":1}`,
		"{\"ts\":\"2016-12-01T00:00:00Z\",\"ip\":\"10.0.0.1\",\"browser\":\"\xff\x7f\",\"plt_ms\":1}",
		`{"ts":"2016-12-01T00:00:00Z","ip":"10.0.0.1","browser":"<b>&amp;","plt_ms":1}`,
		`{"ts":"2016-12-01T00:00:00Z","ip":"10.0.0.1","browser":"x","plt_ms":1,"extra":true}`,
		`{"ts":null,"ip":null,"browser":null,"plt_ms":null}`,
		`{"ts":"null","ip":"10.0.0.1","browser":"x","plt_ms":1}`,
		`{"ts":"2016-12-01T00:00:00Z","ip":"010.0.0.1","browser":"x","plt_ms":1}`,
		`{"ts":"2016-12-01T00:00:00+14:00","ip":"not an address","browser":"x","plt_ms":1}`,
		`{"ts":"2016-12-01T00:00:00Z","ip":"10.0.0.1","browser":"x","plt_ms":1}}`,
		`{}`, `null`, `[]`, ``, `{"ts":"`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if ts, ok := CanonicalTime(data); ok {
			var v struct {
				Time time.Time `json:"ts"`
			}
			if err := json.Unmarshal(data, &v); err != nil || !sameRecord(Record{Time: ts}, Record{Time: v.Time}) {
				t.Fatalf("ts of %q: %v, encoding/json %v (%v)", data, ts, v.Time, err)
			}
		}
		var got, want Record
		gotErr := DecodeRecord(data, &got)
		wantErr := json.Unmarshal(data, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decode %q: error %v, encoding/json %v", data, gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if !sameRecord(got, want) {
			t.Fatalf("decode %q:\n got %+v\nwant %+v", data, got, want)
		}
		enc, err := AppendRecord(nil, got)
		ref, refErr := json.Marshal(got)
		if (err == nil) != (refErr == nil) || !bytes.Equal(enc, ref) {
			t.Fatalf("encode %+v:\n got %s (%v)\nwant %s (%v)", got, enc, err, ref, refErr)
		}
	})
}

// TestCanonicalLinesTakeFastPath: every record the generator streams
// encodes to a line that ParseCanonical takes, with no fallback to
// encoding/json, and back to the same record. An encoder that drifted from
// the canonical form would pass the differential fuzz target yet lose the
// fast path; this catches it.
func TestCanonicalLinesTakeFastPath(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		wcfg := world.DefaultConfig()
		wcfg.Scale = 0.002
		wcfg.Seed = seed
		w, err := world.Generate(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultGenConfig()
		cfg.Seed = seed
		cfg.TotalHits = 20_000
		cfg.BaseHits = 8
		seq, err := Stream(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		n, withAPI := 0, 0
		var line []byte
		for rec := range seq {
			if line, err = AppendRecord(line[:0], rec); err != nil {
				t.Fatal(err)
			}
			got, ok := ParseCanonical(line)
			if !ok {
				t.Fatalf("seed %d: %s does not take the fast path", seed, line)
			}
			if got != rec {
				t.Fatalf("seed %d: %s decodes to %+v, want %+v", seed, line, got, rec)
			}
			if err := rec.Validate(); err != nil {
				t.Fatalf("seed %d: generated record %s is invalid: %v", seed, line, err)
			}
			n++
			if rec.HasAPI() {
				withAPI++
			}
		}
		if n < 1000 || withAPI == 0 {
			t.Fatalf("seed %d: %d records, %d with API data; want a real sample", seed, n, withAPI)
		}
	}
}

// TestAppendJSONStringMatchesMarshal pins the string appender to
// encoding/json on the characters it treats specially.
func TestAppendJSONStringMatchesMarshal(t *testing.T) {
	for _, s := range []string{
		"", "plain", `"quoted"\`, "<b>&", "\b\f\n\r\t\x00\x1f\x7f",
		"é", "\u2028\u2029", "\xff", "a\xc3", "\U0001F600",
	} {
		want, _ := json.Marshal(s)
		if got := AppendJSONString([]byte("x"), s); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Errorf("AppendJSONString(%q) = %s, want x%s", s, got, want)
		}
	}
}

// TestValidate pins the one record rule the collector and the fold paths
// share.
func TestValidate(t *testing.T) {
	ok := Record{IP: netip.MustParseAddr("10.0.0.1"), Conn: "cellular", RAT: "4g", Browser: "x"}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid record refused: %v", err)
	}
	for name, mut := range map[string]func(*Record){
		"no ip":        func(r *Record) { r.IP = netip.Addr{} },
		"unknown conn": func(r *Record) { r.Conn = "bogus" },
		"long browser": func(r *Record) { r.Browser = string(make([]byte, MaxFieldBytes+1)) },
		"long rat":     func(r *Record) { r.RAT = string(make([]byte, MaxFieldBytes+1)) },
	} {
		r := ok
		mut(&r)
		if r.Validate() == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func BenchmarkDecodeRecord(b *testing.B) {
	line := []byte(canonicalSeed)
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			var r Record
			if err := DecodeRecord(line, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			var r Record
			if err := json.Unmarshal(line, &r); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAppendRecord(b *testing.B) {
	r, ok := ParseCanonical([]byte(canonicalSeed))
	if !ok {
		b.Fatal("seed line is not canonical")
	}
	b.Run("codec", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for range b.N {
			buf, _ = AppendRecord(buf[:0], r)
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := json.Marshal(r); err != nil {
				b.Fatal(err)
			}
		}
	})
}
