package graph

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refRMAT is the original RMAT generator, kept verbatim as the reference
// the optimized one must match bit for bit: one rng.Float64 per level
// classified by a four-way switch, then refFromEdgeList.
func refRMAT(rng *rand.Rand, n, edgeFactor int, a, b, c float64, weighted bool) *Graph {
	src, dst := refRMATEdges(rng, n, edgeFactor, a, b, c)
	return refFromEdgeList(n, src, dst, weighted, rng)
}

// refRMATEdges is refRMAT's edge-list half.
func refRMATEdges(rng *rand.Rand, n, edgeFactor int, a, b, c float64) (src, dst []uint32) {
	m := n * edgeFactor
	src = make([]uint32, m)
	dst = make([]uint32, m)
	bits := 0
	for 1<<bits < n {
		bits++
	}
	for i := 0; i < m; i++ {
		var u, v int
		for level := 0; level < bits; level++ {
			r := rng.Float64()
			switch {
			case r < a:
				// upper-left quadrant
			case r < a+b:
				v |= 1 << level
			case r < a+b+c:
				u |= 1 << level
			default:
				u |= 1 << level
				v |= 1 << level
			}
		}
		src[i] = uint32(u % n)
		dst[i] = uint32(v % n)
	}
	return src, dst
}

// refFromEdgeList is the original CSR build: scatter by source, then a
// reflection sort of every adjacency list.
func refFromEdgeList(n int, src, dst []uint32, weighted bool, rng *rand.Rand) *Graph {
	deg := make([]uint32, n+1)
	for _, u := range src {
		deg[u+1]++
	}
	for i := 1; i <= n; i++ {
		deg[i] += deg[i-1]
	}
	g := &Graph{N: n, Offsets: deg, Edges: make([]uint32, len(src))}
	cursor := make([]uint32, n)
	for i, u := range src {
		g.Edges[g.Offsets[u]+cursor[u]] = dst[i]
		cursor[u]++
	}
	for u := 0; u < n; u++ {
		adj := g.Edges[g.Offsets[u]:g.Offsets[u+1]]
		sort.Slice(adj, func(i, j int) bool { return adj[i] < adj[j] })
	}
	if weighted {
		g.Weights = make([]uint8, len(g.Edges))
		for i := range g.Weights {
			g.Weights[i] = uint8(rng.Intn(254) + 1)
		}
	}
	return g
}

// rmatParams are the generator's three parameter triples.
var rmatParams = []struct {
	name    string
	a, b, c float64
}{
	{"kronecker", 0.57, 0.19, 0.19},
	{"twitter", 0.50, 0.25, 0.15},
	{"web", 0.62, 0.19, 0.13},
}

// sameGraph reports the first difference between two graphs, or "".
func sameGraph(got, want *Graph) string {
	switch {
	case got.N != want.N:
		return fmt.Sprintf("N %d, want %d", got.N, want.N)
	case !slices.Equal(got.Offsets, want.Offsets):
		return "Offsets differ"
	case !slices.Equal(got.Edges, want.Edges):
		return "Edges differ"
	case !slices.Equal(got.Weights, want.Weights) || (got.Weights == nil) != (want.Weights == nil):
		return "Weights differ"
	}
	return ""
}

// checkRMATMatchesReference runs generateRMAT and refRMAT from the same
// seed and requires equal graphs and equal RNG state afterwards.
func checkRMATMatchesReference(t *testing.T, seed int64, n, edgeFactor int, a, b, c float64, weighted bool) {
	t.Helper()
	rng, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	if d := sameGraph(generateRMAT(rng, n, edgeFactor, a, b, c, weighted), refRMAT(ref, n, edgeFactor, a, b, c, weighted)); d != "" {
		t.Fatalf("seed %d n %d ef %d (%v,%v,%v) weighted %v: %s", seed, n, edgeFactor, a, b, c, weighted, d)
	}
	if got, want := rng.Int63(), ref.Int63(); got != want {
		t.Fatalf("seed %d n %d ef %d (%v,%v,%v) weighted %v: next draw %d, want %d", seed, n, edgeFactor, a, b, c, weighted, got, want)
	}
}

// TestRMATMatchesReference holds the threshold-based generator to the
// original Float64/switch one, including the u%n fold of non-power-of-two
// vertex counts.
func TestRMATMatchesReference(t *testing.T) {
	for _, p := range rmatParams {
		for _, n := range []int{1, 2, 3, 1000, 1024, 4097} {
			for seed := int64(1); seed <= 4; seed++ {
				checkRMATMatchesReference(t, seed, n, int(seed)*2, p.a, p.b, p.c, seed%2 == 0)
			}
		}
	}
}

func FuzzRMATMatchesReference(f *testing.F) {
	for i, p := range rmatParams {
		f.Add(int64(i), uint16(1000+i), uint8(i), p.a, p.b, p.c, i == 1)
	}
	f.Add(int64(9), uint16(0), uint8(7), 0.0, 0.0, 1.0, false)
	f.Add(int64(10), uint16(4095), uint8(0), 0.25, 0.25, 0.25, true)
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, efRaw uint8, a, b, c float64, weighted bool) {
		// Valid parameters only: non-negative, summing to at most 1 in
		// the generator's own float arithmetic.
		if !(a >= 0 && b >= 0 && c >= 0 && a+b+c <= 1) {
			t.Skip("invalid RMAT parameters")
		}
		n := 1 + int(nRaw%4096)
		edgeFactor := 1 + int(efRaw%8)
		checkRMATMatchesReference(t, seed, n, edgeFactor, a, b, c, weighted)
	})
}

// scriptSource is a rand.Source that replays a fixed list of Int63
// values cyclically and counts the draws taken.
type scriptSource struct {
	vals  []int64
	draws int
}

func (s *scriptSource) Int63() int64 {
	v := s.vals[s.draws%len(s.vals)]
	s.draws++
	return v
}

func (s *scriptSource) Seed(int64) {}

// TestRMATRedrawRule drives both generators with raw draws on either side
// of every quadrant threshold and at or above the point where Float64's
// quotient rounds to 1 and it redraws — a case random seeds essentially
// never reach (about 2^-54 per draw).
func TestRMATRedrawRule(t *testing.T) {
	redraw := rmatThreshold(1)
	for _, p := range rmatParams {
		var special []int64
		for _, q := range []float64{p.a, p.a + p.b, p.a + p.b + p.c, 1} {
			th := rmatThreshold(q)
			// The threshold is the exact Float64 boundary.
			if below := float64(int64(th-1)) / (1 << 63); !(below < q) {
				t.Fatalf("%s: draw %d below threshold gives %v, not < %v", p.name, th-1, below, q)
			}
			if at := float64(int64(th)) / (1 << 63); at < q {
				t.Fatalf("%s: draw %d at threshold gives %v < %v", p.name, th, at, q)
			}
			special = append(special, int64(th-1), int64(th))
		}
		special = append(special, int64(redraw+1), math.MaxInt64, 0)
		pick := rand.New(rand.NewSource(1))
		vals := make([]int64, 4099)
		for i := range vals {
			vals[i] = special[pick.Intn(len(special))]
		}
		for _, weighted := range []bool{false, true} {
			const n, edgeFactor = 1000, 4
			src, ref := &scriptSource{vals: vals}, &scriptSource{vals: vals}
			got := generateRMAT(rand.New(src), n, edgeFactor, p.a, p.b, p.c, weighted)
			want := refRMAT(rand.New(ref), n, edgeFactor, p.a, p.b, p.c, weighted)
			if d := sameGraph(got, want); d != "" {
				t.Fatalf("%s weighted %v: %s", p.name, weighted, d)
			}
			if src.draws != ref.draws {
				t.Fatalf("%s weighted %v: %d draws, reference %d", p.name, weighted, src.draws, ref.draws)
			}
			// Every level (10 per edge) and every weight took at least one
			// draw; more than that means redraws happened.
			accepted := n * edgeFactor * 10
			if weighted {
				accepted += n * edgeFactor
			}
			if src.draws <= accepted {
				t.Fatalf("%s weighted %v: %d draws, no redraw exercised", p.name, weighted, src.draws)
			}
		}
	}
}
