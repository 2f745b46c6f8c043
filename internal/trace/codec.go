package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hbmsim/internal/model"
)

// Binary trace format:
//
//	magic "HBMT" | version u8 (1) | name length uvarint | name bytes |
//	core count uvarint | per core: ref count uvarint, then refs encoded as
//	zigzag varint deltas from the previous reference.
//
// Delta-zigzag encoding makes sequential scans (the common case for the
// instrumented kernels) nearly one byte per reference. Every decoded page
// ID must be at most model.MaxPageID (2^32-1); the readers refuse a wider
// one, naming its core, reference index and value.

var binaryMagic = [4]byte{'H', 'B', 'M', 'T'}

// clampCap bounds an untrusted declared length to a safe initial slice
// capacity; the slice then grows only as bytes actually arrive.
func clampCap(declared, limit uint64) int {
	if declared > limit {
		return int(limit)
	}
	return int(declared)
}

const binaryVersion = 1

// pageRangeError refuses a decoded page ID that does not fit in the 32
// bits of a model.PageID.
func pageRangeError(core, ref, page uint64) error {
	return fmt.Errorf("core %d ref %d: page %d is past the largest page ID %d", core, ref, page, uint64(model.MaxPageID))
}

// WriteBinary encodes the workload in the binary trace format.
func WriteBinary(w io.Writer, wl *Workload) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(binaryVersion); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	putVarint := func(v int64) error {
		n := binary.PutVarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(len(wl.Name))); err != nil {
		return err
	}
	if _, err := bw.WriteString(wl.Name); err != nil {
		return err
	}
	if err := putUvarint(uint64(len(wl.Traces))); err != nil {
		return err
	}
	for _, tr := range wl.Traces {
		if err := putUvarint(uint64(len(tr))); err != nil {
			return err
		}
		prev := uint64(0)
		for _, p := range tr {
			if err := putVarint(int64(uint64(p) - prev)); err != nil {
				return err
			}
			prev = uint64(p)
		}
	}
	return bw.Flush()
}

// ReadBinary decodes a workload from the binary trace format.
func ReadBinary(r io.Reader) (*Workload, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, errors.New("trace: not a binary trace file (bad magic)")
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if ver != binaryVersion {
		return nil, fmt.Errorf("trace: unsupported version %d", ver)
	}
	nameLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	const maxName = 1 << 16
	if nameLen > maxName {
		return nil, fmt.Errorf("trace: workload name too long (%d bytes)", nameLen)
	}
	nameBuf := make([]byte, nameLen)
	if _, err := io.ReadFull(br, nameBuf); err != nil {
		return nil, err
	}
	cores, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	const maxCores = 1 << 20
	if cores > maxCores {
		return nil, fmt.Errorf("trace: implausible core count %d", cores)
	}
	// Grow all buffers as data actually arrives rather than trusting the
	// declared counts: a corrupt or hostile header must not be able to
	// force a huge allocation before the stream runs dry.
	wl := &Workload{Name: string(nameBuf)}
	for i := uint64(0); i < cores; i++ {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: core %d length: %w", i, err)
		}
		tr := make(Trace, 0, clampCap(n, 1<<16))
		prev := uint64(0)
		for j := uint64(0); j < n; j++ {
			d, err := binary.ReadVarint(br)
			if err != nil {
				return nil, fmt.Errorf("trace: core %d ref %d: %w", i, j, err)
			}
			prev += uint64(d)
			if prev > model.MaxPageID {
				return nil, fmt.Errorf("trace: %w", pageRangeError(i, j, prev))
			}
			tr = append(tr, model.PageID(prev))
		}
		wl.Traces = append(wl.Traces, tr)
	}
	return wl, nil
}

// WriteText encodes the workload in a line-oriented text format:
//
//	# workload <name>
//	# core <index>
//	<page id per line>
//
// The format is meant for inspection and interoperability with external
// tracing tools; prefer the binary format for large traces.
func WriteText(w io.Writer, wl *Workload) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# workload %s\n", wl.Name); err != nil {
		return err
	}
	for i, tr := range wl.Traces {
		if _, err := fmt.Fprintf(bw, "# core %d\n", i); err != nil {
			return err
		}
		for _, p := range tr {
			if _, err := fmt.Fprintln(bw, uint64(p)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadText decodes a workload from the text format. Blank lines are
// ignored; references before the first "# core" header are an error.
func ReadText(r io.Reader) (*Workload, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 64*1024)
	wl := &Workload{}
	cur := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(strings.TrimPrefix(line, "#"))
			if len(fields) == 0 {
				continue
			}
			switch fields[0] {
			case "workload":
				if len(fields) > 1 {
					wl.Name = strings.Join(fields[1:], " ")
				}
			case "core":
				wl.Traces = append(wl.Traces, nil)
				cur = len(wl.Traces) - 1
			}
			continue
		}
		if cur < 0 {
			return nil, fmt.Errorf("trace: line %d: reference before any '# core' header", lineNo)
		}
		v, err := strconv.ParseUint(line, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		if v > model.MaxPageID {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, pageRangeError(uint64(cur), uint64(len(wl.Traces[cur])), v))
		}
		wl.Traces[cur] = append(wl.Traces[cur], model.PageID(v))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return wl, nil
}
