// Package graph provides the graph substrate behind the graph500 and GAPBS
// workloads: synthetic generators approximating the paper's inputs (the
// Kronecker graphs of the Graph500 specification and the twitter / road /
// web graphs of the GAP benchmark suite) plus the traversal kernels
// (BFS, PageRank, SSSP, BC) implemented to emit memory-access traces
// against their simulated data-structure addresses.
package graph

import "math/rand"

// Graph is a directed graph in CSR (compressed sparse row) form, the layout
// both Graph500 reference code and GAPBS use. Offsets has N+1 entries;
// the neighbours of u are Edges[Offsets[u]:Offsets[u+1]].
type Graph struct {
	N       int
	Offsets []uint32
	Edges   []uint32
	// Weights parallel Edges (SSSP); nil for unweighted graphs.
	Weights []uint8
}

// M returns the edge count.
func (g *Graph) M() int { return len(g.Edges) }

// Degree returns node u's out-degree.
func (g *Graph) Degree(u uint32) int {
	return int(g.Offsets[u+1] - g.Offsets[u])
}

// Neighbors returns node u's adjacency slice.
func (g *Graph) Neighbors(u uint32) []uint32 {
	return g.Edges[g.Offsets[u]:g.Offsets[u+1]]
}

// fromEdgeList builds a CSR graph from an edge list of packed keys
// u<<vertexBits(n) | v. An LSD radix sort of the keys leaves them grouped
// by source with each adjacency ascending, and one pass then splits them
// into Edges and Offsets; edges is used as scratch space. Weights, when
// asked for, are drawn from rng in edge order after the build.
func fromEdgeList(n int, edges []uint64, weighted bool, rng *rand.Rand) *Graph {
	bits := vertexBits(n)
	edges = radixSort(edges, 2*bits)
	g := &Graph{N: n, Offsets: make([]uint32, n+1), Edges: make([]uint32, len(edges))}
	low := uint64(1)<<bits - 1
	for i, k := range edges {
		g.Edges[i] = uint32(k & low)
		g.Offsets[k>>bits+1]++
	}
	for i := 1; i <= n; i++ {
		g.Offsets[i] += g.Offsets[i-1]
	}
	if weighted {
		g.Weights = make([]uint8, len(g.Edges))
		for i := range g.Weights {
			g.Weights[i] = uint8(rng.Intn(254) + 1)
		}
	}
	return g
}

// vertexBits is the number of bits a vertex ID below n needs: the least
// bits with 1<<bits >= n.
func vertexBits(n int) int {
	bits := 0
	for 1<<bits < n {
		bits++
	}
	return bits
}

// radixDigit is the radix sort's digit width: 11-bit digits sort a 40-bit
// key (2^20 vertices) in four passes with a 2048-entry count table.
const (
	radixDigit = 11
	digitMask  = 1<<radixDigit - 1
)

// radixSort sorts keys whose set bits all lie below keyBits ascending,
// least significant digit first, and returns the sorted slice: keys
// itself or a buffer of the same length.
func radixSort(keys []uint64, keyBits int) []uint64 {
	tmp := make([]uint64, len(keys))
	for shift := 0; shift < keyBits; shift += radixDigit {
		var next [1 << radixDigit]int
		for _, k := range keys {
			next[k>>shift&digitMask]++
		}
		sum := 0
		for d, c := range next {
			next[d] = sum
			sum += c
		}
		for _, k := range keys {
			d := k >> shift & digitMask
			tmp[next[d]] = k
			next[d]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// GenerateKronecker produces a Graph500-style Kronecker (RMAT) graph with
// 2^scale vertices and edgeFactor edges per vertex, using the official
// initiator probabilities A=0.57, B=0.19, C=0.19.
func GenerateKronecker(scale, edgeFactor int, seed int64) *Graph {
	return generateRMAT(rand.New(rand.NewSource(seed)), 1<<scale, edgeFactor, 0.57, 0.19, 0.19, false)
}

// GenerateTwitter produces a power-law graph shaped like GAPBS's twitter
// input: heavy-tailed degrees with a small set of very high-degree hubs.
func GenerateTwitter(n, edgeFactor int, seed int64) *Graph {
	return generateRMAT(rand.New(rand.NewSource(seed)), n, edgeFactor, 0.50, 0.25, 0.15, true)
}

// GenerateWeb produces a hub-dominated graph like GAPBS's web crawl: more
// skew than twitter and long chains between hubs.
func GenerateWeb(n, edgeFactor int, seed int64) *Graph {
	return generateRMAT(rand.New(rand.NewSource(seed)), n, edgeFactor, 0.62, 0.19, 0.13, true)
}

// generateRMAT draws n*edgeFactor RMAT edges, one quadrant per level of
// each edge's vertex IDs, and builds their CSR graph; weights, when asked
// for, continue the same rng stream. The quadrant draw is specified as
//
//	r := rng.Float64()
//	switch {
//	case r < a: // upper-left
//	case r < a+b: v |= 1 << level
//	case r < a+b+c: u |= 1 << level
//	default: u |= 1 << level; v |= 1 << level
//	}
//
// and computed on the raw draws that Float64 is a function of (see
// rmatThreshold), without branching on the quadrant. It requires b, c >= 0.
func generateRMAT(rng *rand.Rand, n, edgeFactor int, a, b, c float64, weighted bool) *Graph {
	edges := make([]uint64, n*edgeFactor)
	bits := vertexBits(n)
	t1, t2, t3 := rmatThreshold(a), rmatThreshold(a+b), rmatThreshold(a+b+c)
	redraw := rmatThreshold(1)
	for i := range edges {
		var u, v uint64
		for level := range uint(bits) {
			x := uint64(rng.Int63())
			for x >= redraw {
				x = uint64(rng.Int63())
			}
			// With t1 <= t2 <= t3: below t1 neither bit, [t1,t2) v only,
			// [t2,t3) u only, from t3 up both.
			ub := atLeast(x, t2)
			u |= ub << (level & 63)
			v |= (atLeast(x, t1) - ub + atLeast(x, t3)) << (level & 63)
		}
		// u and v are below 1<<bits, which is below 2n, so u%n and v%n
		// take at most one subtraction.
		edges[i] = modBelow2n(u, uint64(n))<<bits | modBelow2n(v, uint64(n))
	}
	return fromEdgeList(n, edges, weighted, rng)
}

// rmatThreshold returns the least raw draw x (a value of Int63, or 2^63
// if there is none) for which float64(x)/2^63 < p is false. Rand.Float64
// returns exactly that quotient, redrawing while it rounds to 1, and the
// quotient never decreases as x grows, so a Float64 draw r satisfies
// r < p exactly when its raw draw is below rmatThreshold(p), and Float64
// redraws exactly when the raw draw is at least rmatThreshold(1).
func rmatThreshold(p float64) uint64 {
	lo, hi := uint64(0), uint64(1)<<63
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(int64(mid))/(1<<63) < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// modBelow2n is x % n for x < 2n.
func modBelow2n(x, n uint64) uint64 {
	if x >= n {
		x -= n
	}
	return x
}

// atLeast is 1 if x >= t and 0 otherwise, for x < 2^63 and t <= 2^63:
// x-t wraps to a value with the top bit set exactly when x < t.
func atLeast(x, t uint64) uint64 {
	return (x-t)>>63 ^ 1
}

// GenerateRoad produces a road-network-like graph: a rows×cols grid with
// 4-neighbour connectivity plus a sprinkle of shortcut edges. Node IDs are
// scrambled within blocks of blockRows rows, reflecting the imperfect
// vertex ordering of real road networks: a BFS wave's working set becomes
// a block-sized window rather than a perfectly sequential band. That
// window is what makes gapbs/bfs-road TLB-sensitive only on machines whose
// TLB reach is smaller than the window (§VI-D: sensitive on SandyBridge
// and Haswell, not on Broadwell).
// RoadBlockRows is the ID-scrambling block height of GenerateRoad.
const RoadBlockRows = 1200

func GenerateRoad(rows, cols int, seed int64) *Graph {
	const blockRows = RoadBlockRows
	rng := rand.New(rand.NewSource(seed))
	n := rows * cols
	// Per-block ID scrambling.
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	blockLen := blockRows * cols
	for base := 0; base < n; base += blockLen {
		end := min(base+blockLen, n)
		for i := end - 1; i > base; i-- {
			j := base + rng.Intn(i-base+1)
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	bits := vertexBits(n)
	var edges []uint64
	add := func(u, v int) {
		edges = append(edges, uint64(perm[u])<<bits|uint64(perm[v]))
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			u := r*cols + c
			if c+1 < cols {
				add(u, u+1)
				add(u+1, u)
			}
			if r+1 < rows {
				add(u, u+cols)
				add(u+cols, u)
			}
		}
	}
	// No long-range shortcuts: road BFS must stay a local wave (real road
	// networks are near-planar; even a few random edges would make the
	// traversal small-world and destroy the locality that distinguishes
	// this workload).
	return fromEdgeList(n, edges, true, rng)
}

// LargestComponentSource returns a vertex with non-zero degree that reaches
// a large part of the graph — a reasonable BFS/SSSP source. It picks the
// highest-degree vertex, matching GAPBS's practice of avoiding isolated
// sources.
func (g *Graph) LargestComponentSource() uint32 {
	best, bestDeg := uint32(0), -1
	for u := 0; u < g.N; u++ {
		if d := g.Degree(uint32(u)); d > bestDeg {
			best, bestDeg = uint32(u), d
		}
	}
	return best
}
