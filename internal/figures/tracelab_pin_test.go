package figures

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"testing"
)

// The lab pins fix what BuildTraceLab fits and what DecodeTraceLab
// rebuilds, bit for bit, at two shapes: the fleet-trace workload's lab
// (model seed 12, 174 nodes, 100 minutes) and the paper's default
// extraction. Any rewrite of the chain fit or of the lab codec (how
// counts are held, how rows are normalised, how the chain is
// constructed) must reproduce them unedited.

func hashWord(h hash.Hash64, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}

// labChainDigest hashes the fitted chain: every LogProbs and Prob
// entry's bits, each row's successor list and the steady state's bits.
func labChainDigest(t *testing.T, lab *TraceLab) uint64 {
	t.Helper()
	c := lab.Chain
	n := c.NumStates()
	h := fnv.New64a()
	hashWord(h, uint64(n))
	for _, v := range c.LogProbs() {
		hashWord(h, math.Float64bits(v))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			hashWord(h, math.Float64bits(c.Prob(i, j)))
		}
	}
	for i := 0; i < n; i++ {
		succ := c.Successors(i)
		hashWord(h, uint64(len(succ)))
		for _, j := range succ {
			hashWord(h, uint64(j))
		}
	}
	pi, err := c.SteadyState()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range pi {
		hashWord(h, math.Float64bits(v))
	}
	return h.Sum64()
}

// labTrajectoryDigest hashes the node ids, the quantised trajectories,
// the horizon and the filtered-node count.
func labTrajectoryDigest(lab *TraceLab) uint64 {
	h := fnv.New64a()
	hashWord(h, uint64(lab.Horizon))
	hashWord(h, uint64(lab.FilteredNodes))
	for i, tr := range lab.Trajectories {
		h.Write([]byte(lab.Nodes[i]))
		hashWord(h, uint64(len(tr)))
		for _, s := range tr {
			hashWord(h, uint64(s))
		}
	}
	return h.Sum64()
}

// labPayloadDigest hashes the encoded lab's CMTL1 payload, inflated out
// of its gzip frame so the pin does not depend on the compressor.
func labPayloadDigest(t *testing.T, blob []byte) uint64 {
	t.Helper()
	gz, err := gzip.NewReader(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	if _, err := io.Copy(h, gz); err != nil {
		t.Fatal(err)
	}
	return h.Sum64()
}

// TestTraceLabPinnedBits pins the fitted chain, the trajectories and
// the encoded payload of both labs, and checks that decoding the
// encoded lab reproduces the same chain and trajectory digests.
func TestTraceLabPinnedBits(t *testing.T) {
	cases := []struct {
		name                 string
		cfg                  TraceConfig
		chain, trajs, encode uint64
	}{
		{"fleet-trace", TraceConfig{Seed: 12, Nodes: 174, Minutes: 100},
			0xab3f37cab2436ce4, 0x4223b0484671e8c8, 0x9a484bcfeff455a9},
		{"default", DefaultTraceConfig(),
			0x2563f000d5f61559, 0x45631344032f2b1f, 0xe335b6ee98c4f390},
	}
	for _, c := range cases {
		lab, err := BuildTraceLab(c.cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := labChainDigest(t, lab); got != c.chain {
			t.Errorf("%s: chain digest %#x, want %#x", c.name, got, c.chain)
		}
		if got := labTrajectoryDigest(lab); got != c.trajs {
			t.Errorf("%s: trajectory digest %#x, want %#x", c.name, got, c.trajs)
		}
		blob := encodeLab(t, lab)
		if got := labPayloadDigest(t, blob); got != c.encode {
			t.Errorf("%s: encoded payload digest %#x, want %#x", c.name, got, c.encode)
		}
		back, err := DecodeTraceLab(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("%s: decode: %v", c.name, err)
		}
		if got := labChainDigest(t, back); got != c.chain {
			t.Errorf("%s: decoded chain digest %#x, want %#x", c.name, got, c.chain)
		}
		if got := labTrajectoryDigest(back); got != c.trajs {
			t.Errorf("%s: decoded trajectory digest %#x, want %#x", c.name, got, c.trajs)
		}
	}
}
