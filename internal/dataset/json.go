package dataset

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// FrameFormatID identifies the JSONL frame format.
const FrameFormatID = "apollo-frame-v1"

// FrameHeader is the first line of the JSONL frame format. Telemetry
// spool segments start with the same line, so a segment is an ordinary
// training-data file.
type FrameHeader struct {
	Format  string   `json:"format"`
	Columns []string `json:"columns"`
}

// Check reports whether the header names the JSONL frame format.
func (h *FrameHeader) Check() error {
	if h.Format != FrameFormatID {
		return fmt.Errorf("dataset: unknown frame format %q (want %q)", h.Format, FrameFormatID)
	}
	return nil
}

// WriteJSONL writes the frame in a line-delimited JSON format: a header
// object with the column names, then one array of values per row. The
// format streams (no whole-frame buffering) and appends cheaply, which
// suits long recording sessions better than CSV's quoting rules.
func (f *Frame) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(FrameHeader{Format: FrameFormatID, Columns: f.cols}); err != nil {
		return err
	}
	for _, row := range f.rows {
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL reads a frame written by WriteJSONL.
func ReadJSONL(r io.Reader) (*Frame, error) {
	dec := json.NewDecoder(r)
	var hdr FrameHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("dataset: reading JSONL header: %w", err)
	}
	if err := hdr.Check(); err != nil {
		return nil, err
	}
	f := NewFrame(hdr.Columns...)
	for line := 2; ; line++ {
		var row []float64
		if err := dec.Decode(&row); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("dataset: JSONL line %d: %w", line, err)
		}
		if len(row) != len(hdr.Columns) {
			return nil, fmt.Errorf("dataset: JSONL line %d has %d values, want %d", line, len(row), len(hdr.Columns))
		}
		f.AddRow(row)
	}
	return f, nil
}

// SaveJSONL writes the frame to the named file.
func (f *Frame) SaveJSONL(path string) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.WriteJSONL(file); err != nil {
		file.Close() //apollo:errok Close on the error path; the write error is already being returned
		return err
	}
	return file.Close()
}

// LoadJSONL reads a frame from the named file.
func LoadJSONL(path string) (*Frame, error) {
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	return ReadJSONL(file)
}

// TailLines is the reader of append-only JSONL files that other
// processes write (spool segments, loop journals). It calls fn on each
// '\n'-terminated line of path from byte offset off, passing the line's
// start offset and its bytes without the newline (valid only during the
// call), and returns the offset just past the last line fn accepted. A
// torn final line is left for the next call; an error from fn stops the
// read at that line; an offset past the end of a truncated file
// restarts at 0.
func TailLines(path string, off int64, fn func(at int64, line []byte) error) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return off, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return off, err
	}
	if off > st.Size() {
		off = 0
	}
	buf := make([]byte, st.Size()-off)
	n, err := f.ReadAt(buf, off)
	if err != nil && err != io.EOF {
		return off, err
	}
	buf = buf[:n]
	for {
		nl := bytes.IndexByte(buf, '\n')
		if nl < 0 {
			return off, nil
		}
		if err := fn(off, buf[:nl]); err != nil {
			return off, err
		}
		off += int64(nl + 1)
		buf = buf[nl+1:]
	}
}
