package evolve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"cellspot/internal/netaddr"
)

// timelineDigest hashes every snapshot of a Timeline: its month, its
// detected blocks in canonical order, its CellDU bits and its top blocks.
func timelineDigest(tl *Timeline) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, s := range tl.Snapshots {
		h.Write([]byte(s.Month.String()))
		blocks := make([]netaddr.Block, 0, s.Detected.Len())
		for b := range s.Detected.All() {
			blocks = append(blocks, b)
		}
		netaddr.SortBlocks(blocks)
		put(uint64(len(blocks)))
		for _, b := range blocks {
			put(uint64(b.Fam()))
			put(b.Key())
		}
		put(math.Float64bits(s.CellDU))
		put(uint64(len(s.TopBlocks)))
		for _, b := range s.TopBlocks {
			put(uint64(b.Fam()))
			put(b.Key())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestMonthLoopGoldenDigest pins what Run and RunScenario produce over
// four months of the Scale-0.002 world: Run's timeline, and for every
// registered scenario its timeline and the bytes of each monthly map.
// The digests pin both byte for byte.
func TestMonthLoopGoldenDigest(t *testing.T) {
	w := smallWorld(t)
	tl, err := Run(w, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := timelineDigest(tl), "ff7808733e759c36a1f407b6be5e252d2b372af45d5f67cd4a3caa73ce434c57"; got != want {
		t.Errorf("Run timeline digest = %s, want %s", got, want)
	}

	want := map[string][2]string{
		"baseline":        {"a89c3da0524d1cd3473cda5133a823fbef1d4b79e150f7c3966f448567d12616", "eb391e45b980db3b1d1d83d2cd65c72068bc465af3c420d9e1d43a0824cc944c"},
		"5g-rollout":      {"6f85905e67dd17f23b75becb8a782962fb458250c530d9ce21fcb4a2acc9986a", "f03b2783ee942f2f8c541c9b9f430952a3f35024c734f4f314e92980349c4b14"},
		"operator-merger": {"a89c3da0524d1cd3473cda5133a823fbef1d4b79e150f7c3966f448567d12616", "7e0c0ba3874322880a3a6192b37cc8870c2aed728cfb24151dcc0762911edbb3"},
		"cgnat-expansion": {"bd3804ddee397bbf0a3957347312f920f0fef3d85ca770f8fdbbeaa7393250f4", "078a9313f3641c14cb7aa9e048496e9884b9525950aa20f7b7e5f7091cf3629d"},
	}
	for _, sc := range Scenarios() {
		run, err := RunScenario(w, sc, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		for _, m := range run.Maps {
			var b bytes.Buffer
			if err := m.Write(&b); err != nil {
				t.Fatal(err)
			}
			h.Write(b.Bytes())
		}
		got := [2]string{timelineDigest(run.Timeline), hex.EncodeToString(h.Sum(nil))}
		if got != want[sc.Name] {
			t.Errorf("%s: timeline, map digests = %s, %s; want %s, %s",
				sc.Name, got[0], got[1], want[sc.Name][0], want[sc.Name][1])
		}
	}
}
