package telemetry

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"apollo/internal/dataset"
)

func TestSpoolAppendRotateAndCursorTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSpool(dir, 200) // tiny cap: force rotation quickly
	if err != nil {
		t.Fatal(err)
	}
	cols := []string{"a", "b"}
	cur := NewCursor(dir)

	if err := s.Append(cols, [][]float64{{1, 10}, {2, 20}}); err != nil {
		t.Fatal(err)
	}
	frame, err := cur.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if frame == nil || frame.Len() != 2 || frame.At(1, "b") != 20 {
		t.Fatalf("first poll = %v", frame)
	}

	// Column mismatch is rejected without writing.
	if err := s.Append([]string{"a"}, [][]float64{{1}}); err == nil {
		t.Error("mismatched columns accepted")
	}
	// Row width mismatch is rejected.
	if err := s.Append(cols, [][]float64{{1}}); err == nil {
		t.Error("short row accepted")
	}

	// Enough data to rotate at least once.
	for i := 0; i < 30; i++ {
		if err := s.Append(cols, [][]float64{{float64(i), float64(i) * 2}}); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("expected rotation, found segments %v", segs)
	}
	frame, err = cur.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if frame == nil || frame.Len() != 30 {
		t.Fatalf("tail poll rows = %v, want 30", frame)
	}
	if f, err := cur.Poll(); err != nil || f != nil {
		t.Fatalf("idle poll = %v, %v", f, err)
	}
	if s.Appended() != 32 {
		t.Errorf("appended = %d, want 32", s.Appended())
	}

	// Sealed segments are plain dataset JSONL frames.
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	f, err := dataset.LoadJSONL(filepath.Join(dir, "seg-00000001.jsonl"))
	if err != nil {
		t.Fatalf("sealed segment not a loadable frame: %v", err)
	}
	if f.Col("a") < 0 || f.Col("b") < 0 {
		t.Errorf("segment columns = %v", f.Cols())
	}
}

func TestCursorToleratesTornTailLine(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSpool(dir, DefaultSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]string{"x"}, [][]float64{{1}}); err != nil {
		t.Fatal(err)
	}
	// Simulate a writer mid-line: append bytes with no trailing newline.
	seg := filepath.Join(dir, "seg-00000001.jsonl")
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("[2"); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cur := NewCursor(dir)
	frame, err := cur.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if frame == nil || frame.Len() != 1 {
		t.Fatalf("torn-tail poll = %v, want the 1 complete row", frame)
	}

	// The line completes; the next poll picks up exactly the new row.
	f, err = os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("]\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	frame, err = cur.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if frame == nil || frame.Len() != 1 || frame.At(0, "x") != 2 {
		t.Fatalf("completed-line poll = %v, want row [2]", frame)
	}
}

func TestSpoolReopenResumesOnFreshSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSpool(dir, DefaultSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]string{"x"}, [][]float64{{1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenSpool(dir, DefaultSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Columns(); len(got) != 1 || got[0] != "x" {
		t.Fatalf("reopened columns = %v", got)
	}
	// Reopened spools reject a different layout.
	if err := s2.Append([]string{"y"}, [][]float64{{2}}); err == nil {
		t.Error("layout change accepted across reopen")
	}
	if err := s2.Append([]string{"x"}, [][]float64{{2}}); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 2 {
		t.Fatalf("segments after reopen = %v (%v), want 2", segs, err)
	}
	cur := NewCursor(dir)
	frame, err := cur.Poll()
	if err != nil || frame == nil || frame.Len() != 2 {
		t.Fatalf("cursor over reopened spool = %v, %v", frame, err)
	}
}

// appendRaw appends bytes to a file as a foreign writer would.
func appendRaw(t testing.TB, path, data string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// A corrupt line in a later segment must neither stall the cursor nor
// cost the rows around it: it is skipped and counted, the valid rows of
// both segments arrive once, and later polls stay quiet.
func TestCursorSkipsCorruptRow(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSpool(dir, DefaultSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	cols := []string{"a", "b"}
	if err := s.Append(cols, [][]float64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(cols, [][]float64{{3, 4}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	appendRaw(t, filepath.Join(dir, "seg-00000002.jsonl"), "garbage\n[5,6]\n")

	cur := NewCursor(dir)
	frame, err := cur.Poll()
	if err != nil {
		t.Fatalf("poll with a corrupt row: %v", err)
	}
	if frame == nil || frame.Len() != 3 || frame.At(0, "a") != 1 || frame.At(1, "a") != 3 || frame.At(2, "a") != 5 {
		t.Fatalf("poll = %v, want rows a=1,3,5", frame)
	}
	if got := cur.Corrupt(); got != 1 {
		t.Errorf("Corrupt = %d, want 1", got)
	}
	for i := 0; i < 2; i++ {
		if f, err := cur.Poll(); err != nil || f != nil {
			t.Fatalf("poll %d after the corrupt row = %v, %v; want nothing", i+2, f, err)
		}
	}
	// A row of the wrong width counts the same way.
	appendRaw(t, filepath.Join(dir, "seg-00000002.jsonl"), "[7]\n[8,9]\n")
	frame, err = cur.Poll()
	if err != nil || frame == nil || frame.Len() != 1 || frame.At(0, "a") != 8 {
		t.Fatalf("poll after a short row = %v, %v; want row a=8", frame, err)
	}
	if got := cur.Corrupt(); got != 2 {
		t.Errorf("Corrupt = %d, want 2", got)
	}
}

// A Poll that fails advances no offset: once the bad segment is gone,
// the rows the failed poll had already read arrive.
func TestCursorFailedPollAdvancesNothing(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSpool(dir, DefaultSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append([]string{"a"}, [][]float64{{1}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "seg-00000002.jsonl")
	if err := os.WriteFile(bad, []byte(`{"format":"apollo-frame-v1","columns":["z"]}`+"\n[2]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cur := NewCursor(dir)
	for i := 0; i < 2; i++ {
		if f, err := cur.Poll(); err == nil {
			t.Fatalf("poll %d over a segment with other columns = %v, want an error", i+1, f)
		}
	}
	if err := os.Remove(bad); err != nil {
		t.Fatal(err)
	}
	frame, err := cur.Poll()
	if err != nil || frame == nil || frame.Len() != 1 || frame.At(0, "a") != 1 {
		t.Fatalf("poll after removing the bad segment = %v, %v; want row a=1", frame, err)
	}
}

// goldenColumns and goldenRows are the fixed input of the on-disk
// format check. The column names need JSON escaping and the values
// cover integers, fractions, exponents and signs.
var (
	goldenColumns = []string{"num_indices", "a<b&c", "time_ns"}
	goldenRows    = [][]float64{
		{1, 0, 12.5},
		{2.25, 1, 1e21},
		{-3, 2, 1e-7},
		{0.1, 3, 123456789.125},
	}
)

// TestSpoolSegmentBytes pins the segment format: a spool written from
// fixed input is byte-identical to testdata/golden-seg.jsonl, which an
// earlier release wrote from the same input, and that file still reads
// back through the cursor.
func TestSpoolSegmentBytes(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSpool(dir, DefaultSegmentBytes)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(goldenColumns, goldenRows[:2]); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(goldenColumns, goldenRows[2:]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "seg-00000001.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "golden-seg.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("segment bytes changed:\ngot:\n%s\nwant:\n%s", got, want)
	}

	old := t.TempDir()
	if err := os.WriteFile(filepath.Join(old, "seg-00000001.jsonl"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	frame, err := NewCursor(old).Poll()
	if err != nil || frame == nil {
		t.Fatalf("reading the golden segment: %v, %v", frame, err)
	}
	if !slices.Equal(frame.Cols(), goldenColumns) || frame.Len() != len(goldenRows) {
		t.Fatalf("golden segment read as %v with %d rows", frame.Cols(), frame.Len())
	}
	for i, row := range goldenRows {
		for j, v := range row {
			if frame.Row(i)[j] != v {
				t.Errorf("row %d col %d = %v, want %v", i, j, frame.Row(i)[j], v)
			}
		}
	}
}

// FuzzCursorSegment tails a spool whose first segment the spool wrote
// and whose second is arbitrary bytes. The cursor never panics; a
// failed poll moves no offset; every offset it keeps is 0 or just past
// a '\n'; a second poll yields nothing new; and the spooled row comes
// back unchanged ahead of anything the second segment adds.
func FuzzCursorSegment(f *testing.F) {
	hdr := `{"format":"apollo-frame-v1","columns":["a","b"]}` + "\n"
	f.Add([]byte(hdr+"[3,4]\n[5,6]\n"), 1.5)                                     // valid segment
	f.Add([]byte(hdr+"[3,4]\n[5,"), -2.0)                                        // torn tail
	f.Add([]byte(hdr+"garbage\n[5,6]\n[7]\n"), 1e21)                             // bad and short lines
	f.Add([]byte(hdr+"[3,4]\n"+hdr+"[5,6]\n"), 0.0)                              // restart header mid-segment
	f.Add([]byte(`{"format":"apollo-frame-v1","columns":["z"]}`+"\n[1]\n"), 3.0) // other columns
	f.Add([]byte("not a header\n[1,2]\n"), 4.0)                                  // bad header
	f.Fuzz(func(t *testing.T, seg []byte, x float64) {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return // JSON has no NaN or infinity; Append rejects them
		}
		dir := t.TempDir()
		s, err := OpenSpool(dir, DefaultSegmentBytes)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Append([]string{"a", "b"}, [][]float64{{x, -x}}); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		paths := []string{filepath.Join(dir, "seg-00000001.jsonl"), filepath.Join(dir, "seg-00000002.jsonl")}
		if err := os.WriteFile(paths[1], seg, 0o644); err != nil {
			t.Fatal(err)
		}

		cur := NewCursor(dir)
		frame, err := cur.Poll()
		if err != nil {
			if frame != nil || len(cur.offsets) != 0 {
				t.Fatalf("failed poll returned %v and moved offsets %v", frame, cur.offsets)
			}
		} else {
			if frame == nil || frame.Row(0)[0] != x || frame.Row(0)[1] != -x {
				t.Fatalf("spooled row [%v %v] came back as %v", x, -x, frame)
			}
			for i, p := range paths {
				data, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				if off := cur.offsets[i+1]; off != 0 && data[off-1] != '\n' {
					t.Fatalf("segment %d offset %d is not just past a newline", i+1, off)
				}
			}
		}
		again, err2 := cur.Poll()
		if again != nil {
			t.Fatalf("second poll yielded %d more rows", again.Len())
		}
		if (err == nil) != (err2 == nil) {
			t.Fatalf("poll errors changed without new input: %v, then %v", err, err2)
		}
	})
}
