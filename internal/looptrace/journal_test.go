package looptrace

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"apollo/internal/dataset"
)

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

// A bad line costs one event, not the journal: it is skipped and
// counted, the events around it read, and a torn tail is left unread.
func TestReadJournalSkipsCorruptLines(t *testing.T) {
	dir := t.TempDir()
	tr := New("traind", Options{})
	if err := tr.OpenJournal(dir); err != nil {
		t.Fatal(err)
	}
	tr.Emit(KindDriftFired, "m", "L1", Fields{Rows: 10})
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	path := JournalPath(dir, "traind")
	appendRaw(t, path, "garbage\n{}\n[1]\n")
	tr.Emit(KindRetrainStart, "m", "L1", Fields{Rows: 10})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	appendRaw(t, path, `{"kind":"publish","seq":3`)

	events, corrupt, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 3 {
		t.Errorf("corrupt = %d, want 3", corrupt)
	}
	if len(events) != 2 || events[0].Kind != "drift-fired" || events[1].Kind != "retrain-start" || events[1].Actor != "traind" {
		t.Fatalf("events = %+v", events)
	}

	// A header naming another format is not a loop journal at all.
	other := filepath.Join(dir, "loop-other.jsonl")
	if err := os.WriteFile(other, []byte(`{"format":"apollo-frame-v1"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadJournal(other); err == nil {
		t.Error("a journal with a foreign format header read without error")
	}
}

// clockFields matches the two wall-clock stamps of a journal, which
// differ on every run.
var clockFields = regexp.MustCompile(`"(open_unix_ns|wall_ns)":-?[0-9]+`)

// writeGoldenJournal journals a fixed event sequence, with a restart,
// and returns the file with its clock stamps zeroed.
func writeGoldenJournal(t *testing.T) []byte {
	dir := t.TempDir()
	tr := New("serve:r1", Options{})
	if err := tr.OpenJournal(dir); err != nil {
		t.Fatal(err)
	}
	tr.Emit(KindDriftFired, "lulesh/execution_policy", "L00000000000000ab-00000001", Fields{Rows: 512, A: 0.25, B: 1.5})
	tr.Emit(KindDuel, "lulesh/execution_policy", "L00000000000000ab-00000001", Fields{Rows: 64, A: 1e21, B: -3, Peer: "publish"})
	tr.Emit(KindPublish, "a<b&c", "", Fields{Version: 2, Parent: 1, DurNS: 1234.5})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tr.OpenJournal(dir); err != nil {
		t.Fatal(err)
	}
	tr.Emit(KindSyncPull, "m", "L1", Fields{Version: 3, Peer: "r2", DurNS: 1e-7})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(JournalPath(dir, "serve:r1"))
	if err != nil {
		t.Fatal(err)
	}
	return clockFields.ReplaceAll(data, []byte(`"$1":0`))
}

// TestJournalBytes pins the journal format: a fixed event sequence
// journals byte-identically (clock stamps aside) to
// testdata/golden-journal.jsonl, which an earlier release wrote from the
// same sequence, and that file still reads back.
func TestJournalBytes(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden-journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if got := writeGoldenJournal(t); string(got) != string(want) {
		t.Fatalf("journal bytes changed:\ngot:\n%s\nwant:\n%s", got, want)
	}
	events, corrupt, err := ReadJournal(filepath.Join("testdata", "golden-journal.jsonl"))
	if err != nil || corrupt != 0 || len(events) != 4 {
		t.Fatalf("golden journal read as %d events, %d corrupt, %v", len(events), corrupt, err)
	}
	if e := events[1]; e.Kind != "duel" || e.Peer != "publish" || e.A != 1e21 || e.Actor != "serve:r1" {
		t.Errorf("duel event = %+v", e)
	}
}

// FuzzReadJournal journals one event and appends arbitrary bytes. The
// reader never panics; the tail reader's offset is 0 or just past a
// '\n' and a second read from it finds no line; and unless the extra
// bytes name another format, the journaled event reads back unchanged.
func FuzzReadJournal(f *testing.F) {
	f.Add([]byte(`{"kind":"publish","seq":2,"wall_ns":5,"version":3}`+"\n"), int64(7), 0.5)        // valid event
	f.Add([]byte(`{"kind":"publish","seq":2,"wal`), int64(0), -1.0)                                // torn tail
	f.Add([]byte("garbage\n{}\n[1]\nnull\n"), int64(-1), 1e21)                                     // bad lines
	f.Add([]byte(`{"format":"apollo-loop-v1","actor":"r2","open_unix_ns":1}`+"\n"), int64(1), 0.0) // restart header
	f.Add([]byte(`{"format":"apollo-frame-v1"}`+"\n"), int64(2), 3.0)                              // foreign header
	f.Fuzz(func(t *testing.T, tail []byte, rows int64, a float64) {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return // JSON has no NaN or infinity
		}
		dir := t.TempDir()
		tr := New("traind", Options{})
		if err := tr.OpenJournal(dir); err != nil {
			t.Fatal(err)
		}
		tr.Emit(KindDriftFired, "m", "L1", Fields{Rows: rows, A: a, Peer: "p"})
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		path := JournalPath(dir, "traind")
		appendRaw(t, path, string(tail))

		events, _, err := ReadJournal(path)
		if err == nil {
			e := events[0]
			if e.Kind != "drift-fired" || e.Seq != 1 || e.Rows != rows || e.A != a || e.Model != "m" || e.Loop != "L1" || e.Peer != "p" || e.Actor != "traind" {
				t.Fatalf("journaled event came back as %+v", e)
			}
		}

		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		nop := func(int64, []byte) error { return nil }
		end, err := dataset.TailLines(path, 0, nop)
		if err != nil {
			t.Fatal(err)
		}
		if end != 0 && data[end-1] != '\n' {
			t.Fatalf("offset %d is not just past a newline", end)
		}
		lines := 0
		if _, err := dataset.TailLines(path, end, func(int64, []byte) error { lines++; return nil }); err != nil || lines != 0 {
			t.Fatalf("second read from %d found %d lines (%v)", end, lines, err)
		}
	})
}
