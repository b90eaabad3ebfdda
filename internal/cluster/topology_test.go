package cluster

import (
	"bytes"
	"encoding/json"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const validTopology = `{
  "format": "cellspot-topology/1",
  "vnodes": 32,
  "shards": [
    {"replicas": ["http://127.0.0.1:9001", "http://127.0.0.1:9002"]},
    {"replicas": ["http://127.0.0.1:9003", "http://127.0.0.1:9004"]},
    {"replicas": ["http://127.0.0.1:9005"]}
  ]
}`

func TestParseTopology(t *testing.T) {
	topo, err := ParseTopology(strings.NewReader(validTopology))
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumShards() != 3 || topo.VNodes != 32 {
		t.Errorf("topology = %+v", topo)
	}
	if len(topo.Shards[0].Replicas) != 2 || len(topo.Shards[2].Replicas) != 1 {
		t.Errorf("replicas = %+v", topo.Shards)
	}
}

func TestLoadTopology(t *testing.T) {
	path := filepath.Join(t.TempDir(), "topo.json")
	if err := os.WriteFile(path, []byte(validTopology), 0o644); err != nil {
		t.Fatal(err)
	}
	topo, err := LoadTopology(path)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumShards() != 3 {
		t.Errorf("shards = %d", topo.NumShards())
	}
	if _, err := LoadTopology(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestTopologyValidation(t *testing.T) {
	cases := map[string]string{
		"wrong format":  `{"format":"nope/9","shards":[{"replicas":["http://a:1"]}]}`,
		"no shards":     `{"format":"cellspot-topology/1","shards":[]}`,
		"empty replica": `{"format":"cellspot-topology/1","shards":[{"replicas":[]}]}`,
		"bad scheme":    `{"format":"cellspot-topology/1","shards":[{"replicas":["ftp://a:1"]}]}`,
		"no host":       `{"format":"cellspot-topology/1","shards":[{"replicas":["http://"]}]}`,
		"has path":      `{"format":"cellspot-topology/1","shards":[{"replicas":["http://a:1/v1"]}]}`,
		"duplicate":     `{"format":"cellspot-topology/1","shards":[{"replicas":["http://a:1"]},{"replicas":["http://a:1"]}]}`,
		"unknown field": `{"format":"cellspot-topology/1","shards":[{"replicas":["http://a:1"]}],"extra":1}`,
		"neg vnodes":    `{"format":"cellspot-topology/1","vnodes":-3,"shards":[{"replicas":["http://a:1"]}]}`,
		"huge vnodes":   `{"format":"cellspot-topology/1","vnodes":1000000000,"shards":[{"replicas":["http://a:1"]}]}`,
		"vnodes over":   `{"format":"cellspot-topology/1","vnodes":4097,"shards":[{"replicas":["http://a:1"]}]}`,
	}
	for name, doc := range cases {
		if _, err := ParseTopology(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzParseTopology: ParseTopology never panics on arbitrary bytes, and
// every topology it accepts builds its ring, names an in-range owner for a
// fixed address, and survives a json.Marshal → ParseTopology round trip
// unchanged.
func FuzzParseTopology(f *testing.F) {
	f.Add([]byte(validTopology))
	f.Add([]byte(`{"format":"cellspot-topology/1","shards":[{"replicas":["http://a:1/"]}]}`))
	f.Add([]byte(`{"format":"cellspot-topology/1","vnodes":4096,"shards":[{"replicas":["https://a"]},{"replicas":["http://b:2"]}]}`))
	f.Add([]byte(`{"format":"cellspot-topology/1","vnodes":1000000000,"shards":[{"replicas":["http://a:1"]}]}`))
	f.Add([]byte(`{"format":"cellspot-topology/1","shards":[{"replicas":["http://a:1"]},{"replicas":["http://a:1"]}]}`))
	f.Add([]byte(`{"format":"nope/9","shards":[]}`))
	addr := netip.MustParseAddr("192.0.2.7")
	f.Fuzz(func(t *testing.T, data []byte) {
		topo, err := ParseTopology(bytes.NewReader(data))
		if err != nil {
			return
		}
		if o := topo.Ring().Owner(addr); o < 0 || o >= topo.NumShards() {
			t.Fatalf("owner %d outside [0,%d)", o, topo.NumShards())
		}
		enc, err := json.Marshal(topo)
		if err != nil {
			t.Fatalf("marshal accepted topology: %v", err)
		}
		again, err := ParseTopology(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-parse of %s: %v", enc, err)
		}
		if !reflect.DeepEqual(topo, again) {
			t.Fatalf("round trip changed topology: %+v -> %+v", topo, again)
		}
	})
}

func TestParseShardID(t *testing.T) {
	topo, err := ParseTopology(strings.NewReader(validTopology))
	if err != nil {
		t.Fatal(err)
	}
	if id, err := ParseShardID("1/3", topo); err != nil || id != 1 {
		t.Errorf("1/3 = %d, %v", id, err)
	}
	for _, bad := range []string{"", "1", "x/3", "1/x", "1/4", "3/3", "-1/3"} {
		if _, err := ParseShardID(bad, topo); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}
