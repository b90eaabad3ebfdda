package federation

import (
	"bytes"
	"strings"
	"testing"

	"cellspot/internal/logio"
)

func validManifest(payload []byte) Manifest {
	return Manifest{
		Format:    ManifestFormat,
		Collector: "eu-1",
		Shard:     "beacon-0000.jsonl",
		Offset:    0,
		Length:    int64(len(payload)),
		SHA256:    Digest(payload),
		Records:   2,
		ShardSize: int64(len(payload)) + 100,
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	payload := []byte("{\"ts\":\"2017-01-01T00:00:00Z\"}\n{\"ts\":\"2017-01-02T00:00:00Z\"}\n")
	m := validManifest(payload)
	var buf bytes.Buffer
	if err := EncodeSegment(&buf, m, payload); err != nil {
		t.Fatal(err)
	}
	got, gotPayload, err := DecodeSegment(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != m {
		t.Fatalf("manifest round-trip: got %+v, want %+v", got, m)
	}
	if !bytes.Equal(gotPayload, payload) {
		t.Fatal("payload round-trip diverges")
	}
}

func TestEncodeSegmentLengthMismatch(t *testing.T) {
	m := validManifest([]byte("xx\n"))
	m.Length = 99
	if err := EncodeSegment(&bytes.Buffer{}, m, []byte("xx\n")); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestManifestValidate(t *testing.T) {
	payload := []byte("x\n")
	cases := []struct {
		name   string
		mutate func(*Manifest)
	}{
		{"wrong format", func(m *Manifest) { m.Format = "cellspot-manifest/99" }},
		{"empty collector", func(m *Manifest) { m.Collector = "" }},
		{"collector with slash", func(m *Manifest) { m.Collector = "eu/1" }},
		{"collector with space", func(m *Manifest) { m.Collector = "eu 1" }},
		{"shard with path", func(m *Manifest) { m.Shard = "../beacon-0000.jsonl" }},
		{"negative offset", func(m *Manifest) { m.Offset = -1 }},
		{"negative length", func(m *Manifest) { m.Length = -1; m.SHA256 = "" }},
		{"range overruns shard", func(m *Manifest) { m.ShardSize = m.Length - 1 }},
		{"oversized length", func(m *Manifest) { m.Length = logio.MaxSegmentBytes + 1; m.ShardSize = m.Length }},
		{"short digest", func(m *Manifest) { m.SHA256 = "abcd" }},
		{"non-hex digest", func(m *Manifest) { m.SHA256 = strings.Repeat("zz", 32) }},
		{"day over 11 bytes", func(m *Manifest) { m.DayMin = "2016-12-01T0" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := validManifest(payload)
			tc.mutate(&m)
			if err := m.Validate(); err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
		})
	}
	m := validManifest(payload)
	if err := m.Validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	probe := m
	probe.Length, probe.SHA256 = 0, ""
	if err := probe.Validate(); err != nil {
		t.Fatalf("probe rejected: %v", err)
	}
	if !probe.IsProbe() || m.IsProbe() {
		t.Fatal("IsProbe misclassifies")
	}
}

func TestDecodeSegmentRejectsOversizedManifest(t *testing.T) {
	line := strings.Repeat("a", MaxManifestBytes+1) + "\n"
	if _, _, err := DecodeSegment(strings.NewReader(line)); err == nil {
		t.Fatal("oversized manifest line accepted")
	}
}

func TestDecodeSegmentShortPayload(t *testing.T) {
	payload := []byte("hello\n")
	m := validManifest(payload)
	var buf bytes.Buffer
	if err := EncodeSegment(&buf, m, payload); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, _, err := DecodeSegment(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

// FuzzDecodeSegment: DecodeSegment faces the network. It must never panic,
// and every segment it accepts must re-encode through EncodeSegment to the
// same manifest and payload.
func FuzzDecodeSegment(f *testing.F) {
	payload := []byte(`{"ts":"2016-12-01T00:00:00Z","ip":"10.0.0.1"}` + "\n")
	for _, m := range []Manifest{
		validManifest(payload),
		{Format: ManifestFormat, Collector: "eu-1", Shard: "beacon-0000.jsonl", Offset: 7, ShardSize: 9},
	} {
		var buf bytes.Buffer
		if m.Length > 0 {
			EncodeSegment(&buf, m, payload)
		} else {
			EncodeSegment(&buf, m, nil)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("{}\n"))
	// Escaping grows '<' sixfold on re-encode; an unbounded free-form
	// field used to push a valid manifest past MaxManifestBytes.
	f.Add([]byte(`{"format":"` + ManifestFormat + `","collector":"eu-1","shard":"s","shard_size":1,"day_min":"` + strings.Repeat("<", 3000) + `"}` + "\n"))
	f.Fuzz(func(t *testing.T, body []byte) {
		m, payload, err := DecodeSegment(bytes.NewReader(body))
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if err := EncodeSegment(&enc, m, payload); err != nil {
			t.Fatalf("accepted segment does not re-encode: %v", err)
		}
		m2, payload2, err := DecodeSegment(&enc)
		if err != nil {
			t.Fatalf("re-encoded segment refused: %v", err)
		}
		if m2 != m || !bytes.Equal(payload2, payload) {
			t.Fatalf("round trip changed the segment:\n%+v\n%+v", m, m2)
		}
	})
}
