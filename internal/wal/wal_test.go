package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"github.com/graphsd/graphsd/internal/storage"
)

var testMagic = [8]byte{'W', 'A', 'L', 'T', 'E', 'S', 'T', '1'}

func testOpts() Options { return Options{Prefix: "t", Magic: testMagic} }

func mustOpen(t *testing.T, dir string, opt Options) *Log {
	t.Helper()
	l, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func appendAll(t *testing.T, l *Log, payloads ...string) {
	t.Helper()
	for k, p := range payloads {
		if err := l.Append([]byte(p), k%2 == 0); err != nil {
			t.Fatalf("append %q: %v", p, err)
		}
	}
}

// encodeFrame is the reference encoding of one frame.
func encodeFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
}

func wantFrames(t *testing.T, got [][]byte, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("replayed %d frames %q, want %d %q", len(got), got, len(want), want)
	}
	for k := range want {
		if string(got[k]) != want[k] {
			t.Fatalf("frame %d = %q, want %q", k, got[k], want[k])
		}
	}
}

func segPath(dir string, idx int) string {
	return filepath.Join(dir, fmt.Sprintf("t-%06d.wal", idx))
}

func TestWALAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, testOpts())
	appendAll(t, l, "a", "bb", "ccc")
	if st := l.Stats(); st.Records != 3 || st.Bytes != 3*8+6 || st.Segments != 1 {
		t.Fatalf("stats after appends: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := l.Append([]byte("late"), true); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("append after Close: %v, want ErrUnavailable", err)
	}

	l = mustOpen(t, dir, testOpts())
	defer l.Close()
	wantFrames(t, l.Replayed(), "a", "bb", "ccc")
	st := l.Stats()
	if st.ReplayRecords != 3 || st.ReplayTruncated != 0 || st.Segments != 2 {
		t.Fatalf("replay stats: %+v (want 3 records, 0 truncated, 2 segments)", st)
	}
	wantFrames(t, l.ConsumeReplay(), "a", "bb", "ccc")
	if l.Replayed() != nil {
		t.Fatal("ConsumeReplay kept its reference")
	}
	// Each process run appends to a fresh segment.
	if _, err := os.Stat(segPath(dir, 2)); err != nil {
		t.Fatalf("reopen did not start a fresh segment: %v", err)
	}
}

func TestWALTornTail(t *testing.T) {
	last := "the-last-frame"
	for cut := 1; cut < 8+len(last); cut++ {
		t.Run(fmt.Sprint("cut", cut), func(t *testing.T) {
			dir := t.TempDir()
			l := mustOpen(t, dir, testOpts())
			appendAll(t, l, "one", "two", last)
			l.Close()
			info, err := os.Stat(segPath(dir, 1))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(segPath(dir, 1), info.Size()-int64(cut)); err != nil {
				t.Fatal(err)
			}
			l = mustOpen(t, dir, testOpts())
			defer l.Close()
			wantFrames(t, l.Replayed(), "one", "two")
			if st := l.Stats(); st.ReplayTruncated != 1 {
				t.Fatalf("ReplayTruncated = %d, want 1", st.ReplayTruncated)
			}
		})
	}
}

func TestWALCRCCorruptionStopsSegmentOnly(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, testOpts())
	appendAll(t, l, "alpha", "bravo", "charlie")
	l.Close()
	l = mustOpen(t, dir, testOpts())
	appendAll(t, l, "delta", "echo")
	l.Close()

	// Flip one payload byte of segment 1's second frame.
	data, err := os.ReadFile(segPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	off := len(testMagic) + 8 + len("alpha") + 8
	data[off] ^= 0x40
	if err := os.WriteFile(segPath(dir, 1), data, 0o644); err != nil {
		t.Fatal(err)
	}

	l = mustOpen(t, dir, testOpts())
	defer l.Close()
	// Segment 1 stops at the corrupt frame; segment 2 replays whole.
	wantFrames(t, l.Replayed(), "alpha", "delta", "echo")
	if st := l.Stats(); st.ReplayTruncated != 1 || st.ReplayRecords != 3 {
		t.Fatalf("replay stats %+v, want 3 records and 1 truncated segment", st)
	}
	frames, truncated, err := ReadAll(dir, testOpts())
	if err != nil || truncated != 1 {
		t.Fatalf("ReadAll: truncated=%d err=%v", truncated, err)
	}
	wantFrames(t, frames, "alpha", "delta", "echo")
}

func TestWALFrameSizeCap(t *testing.T) {
	dir := t.TempDir()
	opt := testOpts()
	opt.MaxFrameBytes = 16
	l := mustOpen(t, dir, opt)
	big := bytes.Repeat([]byte{'x'}, 17)
	if err := l.Append(big, true); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized append: %v, want ErrFrameTooLarge", err)
	}
	if l.Err() != nil {
		t.Fatalf("oversized append marked the log failed: %v", l.Err())
	}
	fits := bytes.Repeat([]byte{'y'}, 16)
	if err := l.Append(fits, true); err != nil {
		t.Fatalf("append at the cap: %v", err)
	}
	l.Close()
	l = mustOpen(t, dir, opt)
	defer l.Close()
	wantFrames(t, l.Replayed(), string(fits))

	// A length field beyond the cap is corruption, not an allocation
	// request — even when that many bytes do follow.
	body := encodeFrame(nil, []byte("ok"))
	body = binary.LittleEndian.AppendUint32(body, 1<<30)
	body = binary.LittleEndian.AppendUint32(body, 0)
	frames, truncated := decodeFrames(body, 16, nil)
	if !truncated || len(frames) != 1 {
		t.Fatalf("oversized length field: %d frames, truncated=%v", len(frames), truncated)
	}
	frames, truncated = decodeFrames(encodeFrame(nil, big), 16, nil)
	if !truncated || len(frames) != 0 {
		t.Fatalf("complete frame above the cap accepted: %d frames, truncated=%v", len(frames), truncated)
	}
}

func TestWALRotation(t *testing.T) {
	dir := t.TempDir()
	opt := testOpts()
	// magic (8) + two 28-byte frames reach 64: rotate every two appends.
	opt.SegmentBytes = 64
	l := mustOpen(t, dir, opt)
	var want []string
	for k := 0; k < 9; k++ {
		want = append(want, fmt.Sprintf("payload-%012d", k)) // 20 bytes
	}
	appendAll(t, l, want...)
	if st := l.Stats(); st.Segments != 5 {
		t.Fatalf("Segments = %d after 9 appends, want 5", st.Segments)
	}
	l.Close()
	for idx := 1; idx <= 5; idx++ {
		if _, err := os.Stat(segPath(dir, idx)); err != nil {
			t.Fatalf("segment %d: %v", idx, err)
		}
	}
	l = mustOpen(t, dir, opt)
	defer l.Close()
	wantFrames(t, l.Replayed(), want...)
	if st := l.Stats(); st.Segments != 6 || st.ReplayTruncated != 0 {
		t.Fatalf("reopen stats %+v, want 6 segments and no truncation", st)
	}
}

func TestWALReplayAfterFailedAppend(t *testing.T) {
	for _, tc := range []struct {
		name      string
		fault     error
		truncated int
	}{
		{"torn-write", fmt.Errorf("crash: %w", storage.ErrTornWrite), 1},
		{"write-error", errors.New("disk gone"), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l := mustOpen(t, dir, testOpts())
			appendAll(t, l, "kept-1", "kept-2")
			var calls int
			l.SetFaultInjector(func(op, name string) error {
				calls++
				if op != "append" || name != "t-000001.wal" {
					t.Errorf("injector consulted with (%q, %q)", op, name)
				}
				return tc.fault
			})
			if err := l.Append([]byte("lost"), true); !errors.Is(err, ErrUnavailable) || !errors.Is(err, tc.fault) {
				t.Fatalf("faulted append: %v", err)
			}
			if l.Err() == nil {
				t.Fatal("failed append did not mark the log failed")
			}
			l.SetFaultInjector(nil)
			if err := l.Append([]byte("after"), true); !errors.Is(err, ErrUnavailable) {
				t.Fatalf("append after failure: %v, want ErrUnavailable", err)
			}
			if calls != 1 {
				t.Fatalf("injector consulted %d times, want 1", calls)
			}
			l.Close()

			l = mustOpen(t, dir, testOpts())
			defer l.Close()
			wantFrames(t, l.Replayed(), "kept-1", "kept-2")
			if st := l.Stats(); st.ReplayTruncated != tc.truncated {
				t.Fatalf("ReplayTruncated = %d, want %d", st.ReplayTruncated, tc.truncated)
			}
			// The reopened log is healthy again.
			if err := l.Append([]byte("fresh"), true); err != nil {
				t.Fatalf("append after reopen: %v", err)
			}
		})
	}
}

func TestWALAcceptRejectsFrame(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, testOpts())
	appendAll(t, l, "good", "bad", "good-too")
	l.Close()
	opt := testOpts()
	opt.Accept = func(p []byte) bool { return string(p) != "bad" }
	l = mustOpen(t, dir, opt)
	defer l.Close()
	wantFrames(t, l.Replayed(), "good")
	if st := l.Stats(); st.ReplayTruncated != 1 {
		t.Fatalf("ReplayTruncated = %d, want 1", st.ReplayTruncated)
	}
}

func TestWALOpenValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir, Options{Magic: testMagic}); err == nil {
		t.Fatal("empty prefix accepted")
	}
	if _, err := Open(dir, Options{Prefix: "t"}); err == nil {
		t.Fatal("zero magic accepted")
	}

	l := mustOpen(t, dir, testOpts())
	appendAll(t, l, "x")
	l.Close()
	foreign := testOpts()
	foreign.Magic[7] = '2'
	if _, err := Open(dir, foreign); err == nil {
		t.Fatal("segment with foreign magic replayed")
	}
	if _, _, err := ReadAll(dir, foreign); err == nil {
		t.Fatal("ReadAll replayed a segment with foreign magic")
	}
	// Files that do not parse as this log's segments are ignored.
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	frames, truncated, err := ReadAll(dir, testOpts())
	if err != nil || truncated != 0 {
		t.Fatalf("ReadAll: truncated=%d err=%v", truncated, err)
	}
	wantFrames(t, frames, "x")

	frames, truncated, err = ReadAll(filepath.Join(dir, "missing"), testOpts())
	if err != nil || truncated != 0 || frames != nil {
		t.Fatalf("ReadAll of a missing dir: %d frames, truncated=%d, err=%v", len(frames), truncated, err)
	}
}

// FuzzWALDecode checks frame decode on arbitrary segment bodies: it never
// panics, never returns a frame above the cap, and what it returns is
// exactly the longest valid frame prefix of the input — re-encoding the
// frames reproduces that prefix, and the whole input when nothing was
// truncated.
func FuzzWALDecode(f *testing.F) {
	const maxFrame = 64
	f.Add([]byte{})
	f.Add(encodeFrame(nil, []byte("one")))
	f.Add(encodeFrame(encodeFrame(nil, []byte("one")), []byte("two")))
	f.Add(encodeFrame(nil, nil))
	torn := encodeFrame(nil, []byte("torn tail"))
	f.Add(torn[:len(torn)-3])
	f.Add(torn[:5])
	bad := encodeFrame(nil, []byte("bad crc"))
	bad[9] ^= 1
	f.Add(bad)
	f.Add(binary.LittleEndian.AppendUint32(nil, 1<<31))
	f.Add(encodeFrame(nil, bytes.Repeat([]byte{'z'}, maxFrame+1)))

	f.Fuzz(func(t *testing.T, data []byte) {
		frames, truncated := decodeFrames(data, maxFrame, nil)
		var re []byte
		for _, p := range frames {
			if len(p) > maxFrame {
				t.Fatalf("frame of %d bytes above the %d cap", len(p), maxFrame)
			}
			re = encodeFrame(re, p)
		}
		if !bytes.HasPrefix(data, re) {
			t.Fatal("decoded frames do not re-encode to a prefix of the input")
		}
		if truncated != (len(re) < len(data)) {
			t.Fatalf("truncated=%v but %d of %d bytes decoded", truncated, len(re), len(data))
		}
		again, tr := decodeFrames(data[:len(re)], maxFrame, nil)
		if tr || len(again) != len(frames) {
			t.Fatalf("valid prefix re-decoded to %d frames (truncated=%v), want %d", len(again), tr, len(frames))
		}
	})
}
