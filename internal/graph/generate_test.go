package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"math/rand"
	"testing"
)

// graphDigest is SHA-256 over N, Offsets, Edges and Weights, each slice
// length-prefixed so a nil Weights differs from an empty one.
func graphDigest(g *Graph) string {
	h := sha256.New()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	word(uint64(g.N))
	for _, s := range [][]uint32{g.Offsets, g.Edges} {
		word(uint64(len(s)))
		b := make([]byte, 4*len(s))
		for i, v := range s {
			binary.LittleEndian.PutUint32(b[4*i:], v)
		}
		h.Write(b)
	}
	word(uint64(len(g.Weights)))
	h.Write(g.Weights)
	return hex.EncodeToString(h.Sum(nil))
}

// workloadSeed is the seed internal/workloads derives from a workload
// name (FNV-1a, top bit cleared), so the large cases below pin the very
// graphs the workloads trace.
func workloadSeed(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// TestGeneratorDigests pins every generator's output bit for bit. The
// digests were computed with the original Float64/switch quadrant draw and
// sort.Slice CSR build; any change to the RNG stream, the draw order or
// the adjacency order shows up here.
func TestGeneratorDigests(t *testing.T) {
	cases := []struct {
		name  string
		large bool
		gen   func() *Graph
		want  string
	}{
		{"twitter-1000x4", false, func() *Graph { return GenerateTwitter(1000, 4, 7) },
			"34f464a346e8982945a8f0135a6af50a4eab65d6321272bed354030644e40efc"},
		{"web-2048x8", false, func() *Graph { return GenerateWeb(2048, 8, 11) },
			"7df65ea22163fea7c5941db8332f5dc8e85e27cac2ce43ea4b6a1078cb020c12"},
		{"kronecker-10x8", false, func() *Graph { return GenerateKronecker(10, 8, 1) },
			"884d87fd0396f9bcc4ec9b1273c4e8dd03cfc48e25c319a28ecdd4e9600f69a9"},
		{"road-2500x2", false, func() *Graph { return GenerateRoad(2500, 2, 5) },
			"132f63c0e9285f412f641d741e77148cd00a4f351aea186bcb94bfd263d289b6"},
		{"twitter-2^20x8", true, func() *Graph { return GenerateTwitter(1<<20, 8, workloadSeed("gapbs/pr-twitter")) },
			"86e41ee5e8ffa71110d101f726fea598e777edb3559b199f143abde84bcee23e"},
		{"web-2^20x8", true, func() *Graph { return GenerateWeb(1<<20, 8, workloadSeed("gapbs/sssp-web")) },
			"122c49a0426bd5c6f0a9d7f4ee57d2d039dc9e3f36c27f3b78f7da03e22ab299"},
		{"kronecker-18x8", true, func() *Graph { return GenerateKronecker(18, 8, workloadSeed("graph500/2GB")) },
			"0122a9445359a53df44b549ed0a9077559baa9632c57b8268a18261c6964d70c"},
		{"road-8192x16", true, func() *Graph { return GenerateRoad(8192, 16, workloadSeed("gapbs/bfs-road")) },
			"d8cf96fa8fe3a762a25c5086483243b2d086324da17ff728d4efc3de7000a62c"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.large && testing.Short() {
				t.Skip("workload-sized graph")
			}
			if got := graphDigest(c.gen()); got != c.want {
				t.Errorf("digest %s, want %s", got, c.want)
			}
		})
	}
}

// benchGraph keeps the benchmarks' results live.
var benchGraph *Graph

// BenchmarkGenerateTwitter is gapbs/*-twitter's graph: 2^20 vertices,
// edge factor 8, weighted.
func BenchmarkGenerateTwitter(b *testing.B) {
	seed := workloadSeed("gapbs/pr-twitter")
	for i := 0; i < b.N; i++ {
		benchGraph = GenerateTwitter(1<<20, 8, seed)
	}
}

// BenchmarkFromEdgeList is the CSR build alone on the twitter edge list
// (8M edges), weights included. The build uses its input as scratch
// space, so each iteration starts from a fresh, untimed copy.
func BenchmarkFromEdgeList(b *testing.B) {
	rng := rand.New(rand.NewSource(workloadSeed("gapbs/pr-twitter")))
	src, dst := refRMATEdges(rng, 1<<20, 8, 0.50, 0.25, 0.15)
	edges := make([]uint64, len(src))
	for i, u := range src {
		edges[i] = uint64(u)<<20 | uint64(dst[i])
	}
	work := make([]uint64, len(edges))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(work, edges)
		b.StartTimer()
		benchGraph = fromEdgeList(1<<20, work, true, rand.New(rand.NewSource(1)))
	}
}
