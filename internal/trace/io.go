package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"

	"mosaic/internal/atomicfile"
	"mosaic/internal/mem"
)

// Binary trace formats: generating a workload costs graph construction and
// kernel execution, so traces are worth persisting between sessions (the
// same practice as shipping SPEC traces to simulator users). Two wire
// formats exist (see docs/trace-format.md for the full specification):
//
// MOSTRC01 — the flat row format:
//
//	magic   [8]byte  "MOSTRC01"
//	nameLen uint16   workload name length
//	name    []byte
//	count   uint64   number of accesses
//	records count × { va uint64, gap uint32, flags uint8 }
//
// MOSTRC02 — the block-columnar format. Accesses are grouped into blocks
// of up to v02BlockCap; within a block the columns are encoded separately
// (delta+zigzag varint VAs, varint gaps, 2-bit packed flags), which
// shrinks the bundled workload traces by half or more:
//
//	magic   [8]byte  "MOSTRC02"
//	nameLen uint16
//	name    []byte
//	count   uint64   total accesses across all blocks
//	blocks  until count accesses are consumed:
//	  n          uint32  accesses in this block (1..v02BlockCap)
//	  payloadLen uint32  bytes of encoded columns that follow
//	  payload:
//	    uvarint(va[0]), then n-1 × zigzag-uvarint(va[i]-va[i-1])
//	    n × uvarint(gap[i])
//	    ceil(n/4) flag bytes: access j → byte j/4, bits (j%4)*2
//	                          (bit0 = write, bit1 = dependent)
//
// A multi-phase v02 trace appends one optional trailing section after the
// last block (absent entirely for phase-less traces, so pre-phase readers'
// files round-trip unchanged and pre-phase files decode with Phases() nil —
// the single implicit phase):
//
//	marker [4]byte "MPH1"
//	pcount uint16  number of phases (1..maxPhases)
//	phases pcount × { nameLen uint16, name []byte, lo uint64, hi uint64 }
//
// The decoded phases must form a contiguous ascending partition of
// [0, count); anything else — including a truncated section or an unknown
// marker where the section would start — is a hard decode error, never a
// silent fallback to phase-less.
//
// flags: bit0 = write, bit1 = dependent. All fixed-width integers are
// little-endian. Readers accept both formats (dispatch on magic); writers
// emit v02 unless WriteToV01 is called explicitly (v01 cannot carry
// phases).

var (
	traceMagicV01 = [8]byte{'M', 'O', 'S', 'T', 'R', 'C', '0', '1'}
	traceMagicV02 = [8]byte{'M', 'O', 'S', 'T', 'R', 'C', '0', '2'}
	// phaseMarker opens the optional trailing phase section of a v02 file.
	phaseMarker = [4]byte{'M', 'P', 'H', '1'}
)

const (
	flagWrite = 1 << 0
	flagDep   = 1 << 1

	// v01RecordBytes is the fixed size of one MOSTRC01 record.
	v01RecordBytes = 8 + 4 + 1
	// v02BlockCap bounds accesses per MOSTRC02 block; 4096 keeps a block's
	// decoded columns (~50KB) inside the L2 cache of every modelled core.
	v02BlockCap = 4096
	// maxAccesses is a sanity bound on header counts, not a design limit.
	maxAccesses = 1 << 28
	// maxNameLen bounds the workload-name field.
	maxNameLen = 1<<16 - 1
)

// v02MaxPayload bounds a block's payload length: worst-case varints for
// every column plus the flag bytes.
func v02MaxPayload(n int) int {
	return n*(binary.MaxVarintLen64+binary.MaxVarintLen32) + (n+3)/4
}

// zigzag maps a signed delta to an unsigned varint-friendly value.
func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// WriteTo serializes the trace in the MOSTRC02 block-columnar format.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	var written int64
	n, err := writeHeader(bw, traceMagicV02, t.Name, uint64(t.cols.Len()))
	written += n
	if err != nil {
		return written, err
	}

	var head [8]byte
	payload := make([]byte, 0, v02MaxPayload(v02BlockCap))
	cols := &t.cols
	for lo := 0; lo < cols.Len(); lo += v02BlockCap {
		hi := min(lo+v02BlockCap, cols.Len())
		payload = payload[:0]
		// VA column: absolute first, then zigzag deltas.
		payload = binary.AppendUvarint(payload, cols.va[lo])
		for i := lo + 1; i < hi; i++ {
			payload = binary.AppendUvarint(payload, zigzag(int64(cols.va[i])-int64(cols.va[i-1])))
		}
		// Gap column.
		for i := lo; i < hi; i++ {
			payload = binary.AppendUvarint(payload, uint64(cols.gap[i]))
		}
		// Flag column: 2 bits per access.
		var fb byte
		for i := lo; i < hi; i++ {
			j := i - lo
			if cols.Write(i) {
				fb |= flagWrite << ((j % 4) * 2)
			}
			if cols.Dep(i) {
				fb |= flagDep << ((j % 4) * 2)
			}
			if j%4 == 3 {
				payload = append(payload, fb)
				fb = 0
			}
		}
		if (hi-lo)%4 != 0 {
			payload = append(payload, fb)
		}
		binary.LittleEndian.PutUint32(head[0:4], uint32(hi-lo))
		binary.LittleEndian.PutUint32(head[4:8], uint32(len(payload)))
		if _, err := bw.Write(head[:]); err != nil {
			return written, err
		}
		written += 8
		if _, err := bw.Write(payload); err != nil {
			return written, err
		}
		written += int64(len(payload))
	}
	if len(t.phases) > 0 {
		n, err := writePhaseSection(bw, t.phases)
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, bw.Flush()
}

// writePhaseSection emits the trailing MPH1 phase section.
func writePhaseSection(bw *bufio.Writer, phases []Phase) (int64, error) {
	var written int64
	var buf [16]byte
	copy(buf[0:4], phaseMarker[:])
	binary.LittleEndian.PutUint16(buf[4:6], uint16(len(phases)))
	if _, err := bw.Write(buf[:6]); err != nil {
		return written, err
	}
	written += 6
	for _, p := range phases {
		if len(p.Name) > maxNameLen {
			return written, fmt.Errorf("trace: phase name too long (%d bytes)", len(p.Name))
		}
		binary.LittleEndian.PutUint16(buf[0:2], uint16(len(p.Name)))
		if _, err := bw.Write(buf[:2]); err != nil {
			return written, err
		}
		written += 2
		if _, err := bw.WriteString(p.Name); err != nil {
			return written, err
		}
		written += int64(len(p.Name))
		binary.LittleEndian.PutUint64(buf[0:8], uint64(p.Lo))
		binary.LittleEndian.PutUint64(buf[8:16], uint64(p.Hi))
		if _, err := bw.Write(buf[:16]); err != nil {
			return written, err
		}
		written += 16
	}
	return written, nil
}

// WriteToV01 serializes the trace in the legacy MOSTRC01 row format.
func (t *Trace) WriteToV01(w io.Writer) (int64, error) {
	bw := bufio.NewWriterSize(w, 1<<20)
	var written int64
	n, err := writeHeader(bw, traceMagicV01, t.Name, uint64(t.cols.Len()))
	written += n
	if err != nil {
		return written, err
	}
	// One buffered manual encoder instead of three reflective binary.Write
	// calls per record: the records are packed into a scratch buffer in
	// 13-byte strides and flushed in chunks.
	const chunk = 4096
	buf := make([]byte, 0, chunk*v01RecordBytes)
	cols := &t.cols
	for i := 0; i < cols.Len(); i++ {
		var flags uint8
		if cols.Write(i) {
			flags |= flagWrite
		}
		if cols.Dep(i) {
			flags |= flagDep
		}
		buf = binary.LittleEndian.AppendUint64(buf, cols.va[i])
		buf = binary.LittleEndian.AppendUint32(buf, cols.gap[i])
		buf = append(buf, flags)
		if len(buf) >= chunk*v01RecordBytes {
			if _, err := bw.Write(buf); err != nil {
				return written, err
			}
			written += int64(len(buf))
			buf = buf[:0]
		}
	}
	if _, err := bw.Write(buf); err != nil {
		return written, err
	}
	written += int64(len(buf))
	return written, bw.Flush()
}

// writeHeader emits the common magic/name/count prefix.
func writeHeader(bw *bufio.Writer, magic [8]byte, name string, count uint64) (int64, error) {
	if len(name) > maxNameLen {
		return 0, fmt.Errorf("trace: name too long (%d bytes)", len(name))
	}
	var head [10]byte
	copy(head[0:8], magic[:])
	binary.LittleEndian.PutUint16(head[8:10], uint16(len(name)))
	if _, err := bw.Write(head[:]); err != nil {
		return 0, err
	}
	if _, err := bw.WriteString(name); err != nil {
		return int64(10), err
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], count)
	if _, err := bw.Write(cnt[:]); err != nil {
		return int64(10 + len(name)), err
	}
	return int64(10 + len(name) + 8), nil
}

// countingReader tracks bytes consumed from the underlying reader.
type countingReader struct {
	br   *bufio.Reader
	read int64
}

func (c *countingReader) full(p []byte) error {
	n, err := io.ReadFull(c.br, p)
	c.read += int64(n)
	return err
}

// ReadFrom deserializes a trace written by WriteTo or WriteToV01 (dispatch
// on the magic), replacing the receiver's contents.
func (t *Trace) ReadFrom(r io.Reader) (int64, error) {
	cr := &countingReader{br: bufio.NewReaderSize(r, 1<<20)}
	var magic [8]byte
	if err := cr.full(magic[:]); err != nil {
		return cr.read, err
	}
	var v2 bool
	switch magic {
	case traceMagicV01:
	case traceMagicV02:
		v2 = true
	default:
		return cr.read, fmt.Errorf("trace: bad magic %q", magic[:])
	}
	var head [10]byte
	if err := cr.full(head[:2]); err != nil {
		return cr.read, err
	}
	nameLen := binary.LittleEndian.Uint16(head[:2])
	name := make([]byte, nameLen)
	if err := cr.full(name); err != nil {
		return cr.read, err
	}
	if err := cr.full(head[:8]); err != nil {
		return cr.read, err
	}
	count := binary.LittleEndian.Uint64(head[:8])
	if count > maxAccesses {
		return cr.read, fmt.Errorf("trace: implausible access count %d", count)
	}

	var cols Columns
	// Grow incrementally rather than trusting the header's count: a forged
	// count must not trigger a giant up-front allocation.
	cols.Grow(int(min(count, 1<<16)))
	var err error
	var phases []Phase
	if v2 {
		err = readV02(cr, &cols, count)
		if err == nil {
			phases, err = readPhaseSection(cr, cols.Len())
		}
	} else {
		err = readV01(cr, &cols, count)
	}
	if err != nil {
		return cr.read, err
	}
	t.Name = string(name)
	t.cols = cols
	t.phases = phases
	return cr.read, nil
}

// readPhaseSection decodes the optional trailing MPH1 section of a v02
// stream. A clean EOF right after the last access block means a phase-less
// trace; any bytes present must be a complete, valid phase section.
func readPhaseSection(cr *countingReader, n int) ([]Phase, error) {
	var marker [4]byte
	if err := cr.full(marker[:]); err != nil {
		if err == io.EOF {
			return nil, nil
		}
		return nil, fmt.Errorf("trace: truncated phase marker: %w", err)
	}
	if marker != phaseMarker {
		return nil, fmt.Errorf("trace: bad phase-section marker %q", marker[:])
	}
	var buf [16]byte
	if err := cr.full(buf[:2]); err != nil {
		return nil, fmt.Errorf("trace: truncated phase count: %w", err)
	}
	pcount := binary.LittleEndian.Uint16(buf[:2])
	if pcount == 0 || int(pcount) > maxPhases {
		return nil, fmt.Errorf("trace: implausible phase count %d", pcount)
	}
	phases := make([]Phase, 0, pcount)
	for i := 0; i < int(pcount); i++ {
		if err := cr.full(buf[:2]); err != nil {
			return nil, fmt.Errorf("trace: truncated phase %d: %w", i, err)
		}
		nameLen := binary.LittleEndian.Uint16(buf[:2])
		name := make([]byte, nameLen)
		if err := cr.full(name); err != nil {
			return nil, fmt.Errorf("trace: truncated phase %d name: %w", i, err)
		}
		if err := cr.full(buf[:16]); err != nil {
			return nil, fmt.Errorf("trace: truncated phase %d bounds: %w", i, err)
		}
		lo := binary.LittleEndian.Uint64(buf[0:8])
		hi := binary.LittleEndian.Uint64(buf[8:16])
		if lo > maxAccesses || hi > maxAccesses {
			return nil, fmt.Errorf("trace: implausible phase %d bounds [%d, %d)", i, lo, hi)
		}
		phases = append(phases, Phase{Name: string(name), Lo: int(lo), Hi: int(hi)})
	}
	if err := validatePhases(phases, n); err != nil {
		return nil, err
	}
	return phases, nil
}

// readV01 decodes the fixed-width record stream with one buffered manual
// decoder instead of three reflective binary.Read calls per record.
func readV01(cr *countingReader, cols *Columns, count uint64) error {
	const chunk = 4096
	buf := make([]byte, chunk*v01RecordBytes)
	for done := uint64(0); done < count; {
		n := min(uint64(chunk), count-done)
		b := buf[:n*v01RecordBytes]
		if err := cr.full(b); err != nil {
			return fmt.Errorf("trace: truncated at access %d: %w", done, err)
		}
		for i := uint64(0); i < n; i++ {
			rec := b[i*v01RecordBytes:]
			flags := rec[12]
			cols.Append(Access{
				VA:    mem.Addr(binary.LittleEndian.Uint64(rec[0:8])),
				Gap:   binary.LittleEndian.Uint32(rec[8:12]),
				Write: flags&flagWrite != 0,
				Dep:   flags&flagDep != 0,
			})
		}
		done += n
	}
	return nil
}

// v02Scratch holds the column buffers one block decode fills before the
// accesses are appended. A trace runs to thousands of blocks and concurrent
// sweep sessions load several traces at once, so the buffers are pooled
// rather than allocated per block (or held per reader).
type v02Scratch struct {
	vas  []uint64
	gaps []uint32
}

var v02ScratchPool = sync.Pool{
	New: func() any {
		return &v02Scratch{
			vas:  make([]uint64, v02BlockCap),
			gaps: make([]uint32, v02BlockCap),
		}
	},
}

// readV02 decodes the block-columnar stream.
func readV02(cr *countingReader, cols *Columns, count uint64) error {
	var head [8]byte
	payload := make([]byte, 0, v02MaxPayload(v02BlockCap))
	scratch := v02ScratchPool.Get().(*v02Scratch)
	defer v02ScratchPool.Put(scratch)
	for done := uint64(0); done < count; {
		if err := cr.full(head[:]); err != nil {
			return fmt.Errorf("trace: truncated block header at access %d: %w", done, err)
		}
		n := binary.LittleEndian.Uint32(head[0:4])
		payloadLen := binary.LittleEndian.Uint32(head[4:8])
		if n == 0 || n > v02BlockCap || uint64(n) > count-done {
			return fmt.Errorf("trace: forged block size %d (%d of %d accesses consumed)", n, done, count)
		}
		if int(payloadLen) > v02MaxPayload(int(n)) {
			return fmt.Errorf("trace: forged block payload length %d for %d accesses", payloadLen, n)
		}
		if cap(payload) < int(payloadLen) {
			payload = make([]byte, payloadLen)
		}
		payload = payload[:payloadLen]
		if err := cr.full(payload); err != nil {
			return fmt.Errorf("trace: truncated block at access %d: %w", done, err)
		}
		if err := decodeBlock(payload, cols, int(n), scratch); err != nil {
			return fmt.Errorf("trace: block at access %d: %w", done, err)
		}
		done += uint64(n)
	}
	return nil
}

// decodeBlock appends one block's n accesses from its encoded payload,
// staging the columns in the caller's scratch buffers.
func decodeBlock(payload []byte, cols *Columns, n int, scratch *v02Scratch) error {
	pos := 0
	varint := func() (uint64, bool) {
		v, w := binary.Uvarint(payload[pos:])
		if w <= 0 {
			return 0, false
		}
		pos += w
		return v, true
	}
	vas := scratch.vas[:n]
	va, ok := varint()
	if !ok {
		return fmt.Errorf("bad first VA varint")
	}
	vas[0] = va
	for i := 1; i < n; i++ {
		d, ok := varint()
		if !ok {
			return fmt.Errorf("bad VA delta varint (access %d)", i)
		}
		va = uint64(int64(va) + unzigzag(d))
		vas[i] = va
	}
	gaps := scratch.gaps[:n]
	for i := 0; i < n; i++ {
		g, ok := varint()
		if !ok || g > 1<<32-1 {
			return fmt.Errorf("bad gap varint (access %d)", i)
		}
		gaps[i] = uint32(g)
	}
	flagBytes := (n + 3) / 4
	if len(payload)-pos != flagBytes {
		return fmt.Errorf("flag section is %d bytes, want %d", len(payload)-pos, flagBytes)
	}
	flags := payload[pos:]
	for i := 0; i < n; i++ {
		f := flags[i/4] >> ((i % 4) * 2)
		cols.Append(Access{
			VA:    mem.Addr(vas[i]),
			Gap:   gaps[i],
			Write: f&flagWrite != 0,
			Dep:   f&flagDep != 0,
		})
	}
	return nil
}

// Save writes the trace to a file (in the current default format). The
// write is atomic (see internal/atomicfile), so an interrupted run never
// leaves a truncated MOSTRC02 file behind to poison a trace cache: readers
// see either the old complete file or the new complete file, never a
// prefix.
func (t *Trace) Save(path string) error {
	return atomicfile.Write(path, 0o644, func(w io.Writer) error {
		_, err := t.WriteTo(w)
		return err
	})
}

// Load reads a trace from a file written by Save (either format).
func Load(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var t Trace
	if _, err := t.ReadFrom(f); err != nil {
		return nil, fmt.Errorf("trace: loading %s: %w", path, err)
	}
	return &t, nil
}
