// Package cluster shards the measurement sweep across processes: a
// coordinator decomposes a sweep into (workload, platform, layout-batch)
// shards, a fleet of worker processes lease and execute them through the
// existing replay pipeline, and the coordinator merges completed shards —
// in deterministic shard-key order — into exactly the per-layout results a
// single-node sweep would produce. The economy is the paper's own: replay
// results are pure functions of (trace, platform, layout, sampling plan),
// so shard execution is *verifiably* correct — a merged distributed run
// must equal a single-node run bit for bit, and the golden tests hold it
// to that.
//
// Worker health is lease-based: a worker registers, heartbeats, and leases
// one shard at a time; a worker that dies mid-shard stops heartbeating,
// its lease expires, and the shard is retried on the next live worker.
// Retries cannot change the answer — determinism again — so the failure
// model is simply "a shard is re-run until some worker finishes it".
package cluster

import (
	"encoding/binary"
	"fmt"
	"math"

	"mosaic/internal/sim"
)

// The MOSSHRD wire format carries shard specs (coordinator → worker) and
// shard results (worker → coordinator) as HTTP bodies. It follows the
// repo's hand-rolled codec discipline (MOSTRC02, MOSCKPT01): fixed magic,
// version byte, bounded length fields validated before allocation,
// little-endian fixed-width integers, and a trailing FNV-1a checksum over
// everything before it, so a truncated or corrupted payload is rejected
// rather than half-decoded into a sweep.
//
// Layout (all integers little-endian):
//
//	magic    [8]byte  "MOSSHRD0"
//	version  byte     '2' (bytes 0..9 spell "MOSSHRD02")
//	kind     byte     'S' = shard spec, 'R' = shard result
//	spec:    key, job, workload, platform, proto (u16-len strings),
//	         sampling 4×u32, lo u32, hi u32
//	result:  key, job (u16-len strings), lo u32, hi u32,
//	         (hi-lo) × { layout (u16-len string), 14×u64 counters,
//	                     walkRefs u64, measured u64, total u64,
//	                     phases u16, phases × { name (u16-len string),
//	                       14×u64 counters, walkRefs u64, measured u64,
//	                       total u64 } }
//	checksum u64      FNV-1a of all preceding bytes
//
// Version 2 added the per-layout phase section (phased traces attribute
// counters per regime; the fleet merge must preserve that attribution
// bit-identically). Version skew is a hard error in both directions: a
// v1 result silently stripped of phases would break the solo-vs-fleet
// bit-identity contract, so mixed-version fleets are rejected at decode.
var magic = [8]byte{'M', 'O', 'S', 'S', 'H', 'R', 'D', '0'}

// wireVersion is the format version byte following the magic.
const wireVersion = '2'

// Payload kind bytes.
const (
	kindSpec   = 'S'
	kindResult = 'R'
)

const (
	// maxStrLen bounds every string field (keys, names).
	maxStrLen = 1 << 12
	// maxSpanLayouts bounds a shard's layout span; the largest real
	// protocol is ~103 layouts.
	maxSpanLayouts = 1 << 16
	// maxWirePhases bounds a layout result's phase rows, mirroring the
	// trace layer's phase-count sanity bound.
	maxWirePhases = 1 << 12
)

// ShardSpec is one unit of distributed work: replay the layout span
// [Lo, Hi) of the pair's deterministic protocol order at the given
// fidelity. The worker re-derives the layouts from (workload, platform,
// proto) — protocol planning is seeded by the pair key, so every process
// plans the identical layout sequence and the spec only needs indices.
type ShardSpec struct {
	// Key is the coordinator-assigned shard identity ("job/lo-hi").
	Key string
	// Job is the coordinator's sweep-job identity the shard belongs to.
	Job string
	// Workload, Platform, Proto name the pair and its layout protocol
	// ("quick", "standard", or "extended").
	Workload string
	Platform string
	Proto    string
	// Sampling is the resolved replay fidelity (zero value = exact).
	Sampling sim.Sampling
	// Lo, Hi bound the layout span [Lo, Hi) in protocol order.
	Lo, Hi int
}

// LayoutResult pairs one layout's name with its replay result — the unit
// the coordinator merges, in layout order, into a dataset.
type LayoutResult struct {
	Layout string
	Result sim.Result
}

// ShardResult carries a completed shard's per-layout results back to the
// coordinator. Layout names travel with the counters so the merge can
// cross-check them against the coordinator's own protocol plan.
type ShardResult struct {
	Key string
	Job string
	Lo  int
	Hi  int
	// Results holds one entry per layout of the span, in span order.
	Results []LayoutResult
}

// fnv1a hashes bytes with 64-bit FNV-1a (the repo's standard content hash).
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendStr(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// counterWords lists a result's counter fields in fixed wire order. The
// codec round-trip test compares decoded results with ==, so a new
// pmu.Counters field that is not added here fails the test instead of
// silently dropping off the wire.
func counterWords(r *sim.Result) [17]*uint64 {
	c := &r.Counters
	return [17]*uint64{
		&c.R, &c.H, &c.M, &c.C, &c.Instructions,
		&c.L1DLoadsProgram, &c.L1DLoadsWalker,
		&c.L2LoadsProgram, &c.L2LoadsWalker,
		&c.L3LoadsProgram, &c.L3LoadsWalker,
		&c.DRAMLoadsProgram, &c.DRAMLoadsWalker,
		&c.TLBLookups,
		&r.WalkRefs, &r.MeasuredAccesses, &r.TotalAccesses,
	}
}

// phaseWords lists one phase row's fields in fixed wire order, mirroring
// counterWords for sim.PhaseResult.
func phaseWords(p *sim.PhaseResult) [17]*uint64 {
	c := &p.Counters
	return [17]*uint64{
		&c.R, &c.H, &c.M, &c.C, &c.Instructions,
		&c.L1DLoadsProgram, &c.L1DLoadsWalker,
		&c.L2LoadsProgram, &c.L2LoadsWalker,
		&c.L3LoadsProgram, &c.L3LoadsWalker,
		&c.DRAMLoadsProgram, &c.DRAMLoadsWalker,
		&c.TLBLookups,
		&p.WalkRefs, &p.MeasuredAccesses, &p.TotalAccesses,
	}
}

// header starts a payload of the given kind.
func header(kind byte) []byte {
	b := make([]byte, 0, 256)
	b = append(b, magic[:]...)
	b = append(b, wireVersion, kind)
	return b
}

// seal appends the checksum trailer.
//
//mosvet:codecskip the trailer is written last on encode but verified first by open, so its u64 is positionally asymmetric by design
func seal(b []byte) []byte { return appendU64(b, fnv1a(b)) }

// validSpan checks a shard's layout span.
func validSpan(lo, hi int) error {
	if lo < 0 || hi <= lo || hi-lo > maxSpanLayouts {
		return fmt.Errorf("cluster: invalid layout span [%d, %d)", lo, hi)
	}
	return nil
}

// Encode serializes the spec as a MOSSHRD02 payload.
func (s *ShardSpec) Encode() ([]byte, error) {
	for _, str := range []string{s.Key, s.Job, s.Workload, s.Platform, s.Proto} {
		if len(str) > maxStrLen {
			return nil, fmt.Errorf("cluster: string field of %d bytes exceeds the %d-byte wire bound", len(str), maxStrLen)
		}
	}
	if err := validSpan(s.Lo, s.Hi); err != nil {
		return nil, err
	}
	for _, v := range []int{s.Sampling.Period, s.Sampling.MeasureLen, s.Sampling.WarmupLen, s.Sampling.PrologueLen} {
		if v < 0 || v > math.MaxUint32 {
			return nil, fmt.Errorf("cluster: sampling parameter %d outside the u32 wire range", v)
		}
	}
	b := header(kindSpec)
	b = appendStr(b, s.Key)
	b = appendStr(b, s.Job)
	b = appendStr(b, s.Workload)
	b = appendStr(b, s.Platform)
	b = appendStr(b, s.Proto)
	b = appendU32(b, uint32(s.Sampling.Period))
	b = appendU32(b, uint32(s.Sampling.MeasureLen))
	b = appendU32(b, uint32(s.Sampling.WarmupLen))
	b = appendU32(b, uint32(s.Sampling.PrologueLen))
	b = appendU32(b, uint32(s.Lo))
	b = appendU32(b, uint32(s.Hi))
	return seal(b), nil
}

// Encode serializes the result as a MOSSHRD02 payload.
func (r *ShardResult) Encode() ([]byte, error) {
	for _, str := range []string{r.Key, r.Job} {
		if len(str) > maxStrLen {
			return nil, fmt.Errorf("cluster: string field of %d bytes exceeds the %d-byte wire bound", len(str), maxStrLen)
		}
	}
	if err := validSpan(r.Lo, r.Hi); err != nil {
		return nil, err
	}
	if len(r.Results) != r.Hi-r.Lo {
		return nil, fmt.Errorf("cluster: shard %s carries %d results for a %d-layout span", r.Key, len(r.Results), r.Hi-r.Lo)
	}
	b := header(kindResult)
	b = appendStr(b, r.Key)
	b = appendStr(b, r.Job)
	b = appendU32(b, uint32(r.Lo))
	b = appendU32(b, uint32(r.Hi))
	for i := range r.Results {
		lr := &r.Results[i]
		if len(lr.Layout) > maxStrLen {
			return nil, fmt.Errorf("cluster: layout name of %d bytes exceeds the %d-byte wire bound", len(lr.Layout), maxStrLen)
		}
		b = appendStr(b, lr.Layout)
		for _, w := range counterWords(&lr.Result) {
			b = appendU64(b, *w)
		}
		if len(lr.Result.Phases) > maxWirePhases {
			return nil, fmt.Errorf("cluster: layout %s carries %d phase rows, wire bound is %d",
				lr.Layout, len(lr.Result.Phases), maxWirePhases)
		}
		b = binary.LittleEndian.AppendUint16(b, uint16(len(lr.Result.Phases)))
		for pi := range lr.Result.Phases {
			ph := &lr.Result.Phases[pi]
			if len(ph.Name) > maxStrLen {
				return nil, fmt.Errorf("cluster: phase name of %d bytes exceeds the %d-byte wire bound", len(ph.Name), maxStrLen)
			}
			b = appendStr(b, ph.Name)
			for _, w := range phaseWords(ph) {
				b = appendU64(b, *w)
			}
		}
	}
	return seal(b), nil
}

// reader is a bounds-checked cursor over a payload.
type reader struct {
	b   []byte
	off int
}

func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.b) {
		return nil, fmt.Errorf("cluster: truncated payload (%d bytes, need %d more at offset %d)", len(r.b), n, r.off)
	}
	out := r.b[r.off : r.off+n]
	r.off += n
	return out, nil
}

func (r *reader) u16() (uint16, error) {
	b, err := r.take(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *reader) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (r *reader) str() (string, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	if int(n) > maxStrLen {
		return "", fmt.Errorf("cluster: string field of %d bytes exceeds the %d-byte wire bound", n, maxStrLen)
	}
	b, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// open validates magic, version, kind, and the checksum trailer, returning
// a cursor over the payload body.
//
//mosvet:codecskip reads the seal trailer (end of buffer) before the body, the mirror image of seal's write-last placement
func open(b []byte, kind byte) (*reader, error) {
	if len(b) < len(magic)+2+8 {
		return nil, fmt.Errorf("cluster: payload of %d bytes is shorter than the MOSSHRD02 envelope", len(b))
	}
	if string(b[:len(magic)]) != string(magic[:]) {
		return nil, fmt.Errorf("cluster: bad magic %q (want %q)", b[:len(magic)], magic)
	}
	if v := b[len(magic)]; v != wireVersion {
		return nil, fmt.Errorf("cluster: unsupported MOSSHRD version %q (want %q)", v, wireVersion)
	}
	if k := b[len(magic)+1]; k != kind {
		return nil, fmt.Errorf("cluster: payload kind %q, want %q", k, kind)
	}
	body, trailer := b[:len(b)-8], b[len(b)-8:]
	if got, want := binary.LittleEndian.Uint64(trailer), fnv1a(body); got != want {
		return nil, fmt.Errorf("cluster: checksum mismatch (%016x, want %016x)", got, want)
	}
	return &reader{b: body, off: len(magic) + 2}, nil
}

// done rejects trailing bytes after a fully decoded payload.
func (r *reader) done() error {
	if r.off != len(r.b) {
		return fmt.Errorf("cluster: %d trailing bytes after payload", len(r.b)-r.off)
	}
	return nil
}

// DecodeSpec parses a MOSSHRD02 shard-spec payload.
func DecodeSpec(b []byte) (*ShardSpec, error) {
	r, err := open(b, kindSpec)
	if err != nil {
		return nil, err
	}
	var s ShardSpec
	for _, dst := range []*string{&s.Key, &s.Job, &s.Workload, &s.Platform, &s.Proto} {
		if *dst, err = r.str(); err != nil {
			return nil, err
		}
	}
	var words [6]uint32
	for i := range words {
		if words[i], err = r.u32(); err != nil {
			return nil, err
		}
	}
	s.Sampling = sim.Sampling{
		Period:      int(words[0]),
		MeasureLen:  int(words[1]),
		WarmupLen:   int(words[2]),
		PrologueLen: int(words[3]),
	}
	s.Lo, s.Hi = int(words[4]), int(words[5])
	if err := validSpan(s.Lo, s.Hi); err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return &s, nil
}

// DecodeResult parses a MOSSHRD02 shard-result payload.
func DecodeResult(b []byte) (*ShardResult, error) {
	r, err := open(b, kindResult)
	if err != nil {
		return nil, err
	}
	var res ShardResult
	if res.Key, err = r.str(); err != nil {
		return nil, err
	}
	if res.Job, err = r.str(); err != nil {
		return nil, err
	}
	lo, err := r.u32()
	if err != nil {
		return nil, err
	}
	hi, err := r.u32()
	if err != nil {
		return nil, err
	}
	res.Lo, res.Hi = int(lo), int(hi)
	if err := validSpan(res.Lo, res.Hi); err != nil {
		return nil, err
	}
	res.Results = make([]LayoutResult, res.Hi-res.Lo)
	for i := range res.Results {
		lr := &res.Results[i]
		if lr.Layout, err = r.str(); err != nil {
			return nil, err
		}
		for _, w := range counterWords(&lr.Result) {
			if *w, err = r.u64(); err != nil {
				return nil, err
			}
		}
		nPhases, err := r.u16()
		if err != nil {
			return nil, err
		}
		if int(nPhases) > maxWirePhases {
			return nil, fmt.Errorf("cluster: layout %s declares %d phase rows, wire bound is %d",
				lr.Layout, nPhases, maxWirePhases)
		}
		if nPhases > 0 {
			lr.Result.Phases = make([]sim.PhaseResult, nPhases)
			for pi := range lr.Result.Phases {
				ph := &lr.Result.Phases[pi]
				if ph.Name, err = r.str(); err != nil {
					return nil, err
				}
				for _, w := range phaseWords(ph) {
					if *w, err = r.u64(); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return &res, nil
}
