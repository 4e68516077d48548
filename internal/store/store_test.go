package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// key returns a valid digest whose hex digits are all c.
func key(c byte) string { return "sha256:" + strings.Repeat(string(c), 64) }

func TestSealOpenRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, []byte("{}"), []byte("x\n#cobra-entry-v1 sha256=\n"), bytes.Repeat([]byte{0xff}, 4096)} {
		sealed := Seal(payload)
		if len(sealed) != len(payload)+footerLen {
			t.Errorf("Seal(%d bytes) is %d bytes, want %d", len(payload), len(sealed), len(payload)+footerLen)
		}
		got, err := Open(sealed)
		if err != nil {
			t.Fatalf("Open(Seal(%q)): %v", payload, err)
		}
		if !bytes.Equal(got, payload) {
			t.Errorf("Open(Seal(%q)) = %q", payload, got)
		}
	}
}

func TestOpenRejects(t *testing.T) {
	sealed := Seal([]byte(`{"stats":{"Cycles":41614}}`))
	flipped := bytes.Clone(sealed)
	flipped[5] ^= 0x01
	for name, data := range map[string][]byte{
		"empty":     nil,
		"truncated": sealed[:10],
		"unsealed":  []byte(`{"stats":{"Cycles":41614}}` + strings.Repeat(" ", footerLen)),
		"flipped":   flipped,
		"no-final":  sealed[:len(sealed)-1],
	} {
		if _, err := Open(data); err == nil {
			t.Errorf("%s: Open accepted %q", name, data)
		}
	}
}

func TestInvalidKeys(t *testing.T) {
	s := New(t.TempDir(), ".json", 4, nil)
	for _, k := range []string{"", "sha256:", "sha256:" + strings.Repeat("A", 64),
		"sha256:" + strings.Repeat("a", 63), "md5:" + strings.Repeat("a", 64),
		"sha256:../../" + strings.Repeat("a", 58)} {
		if err := s.Put(k, []byte("v")); err == nil {
			t.Errorf("Put(%q) accepted an invalid key", k)
		}
		if _, ok := s.Get(k); ok {
			t.Errorf("Get(%q) hit on an invalid key", k)
		}
	}
	if n := s.Len(); n != 0 {
		t.Errorf("invalid keys left %d in-memory entries", n)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	s := New("", ".json", 2, nil)
	for _, c := range []byte("abc") {
		if err := s.Put(key(c), []byte{c}); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get(key('a')); ok {
		t.Error("oldest entry survived a third put into a 2-entry LRU")
	}
	// Touch b so that c is now the least recently used.
	if v, ok := s.Get(key('b')); !ok || string(v) != "b" {
		t.Fatalf("Get(b) = %q, %v", v, ok)
	}
	if err := s.Put(key('d'), []byte("d")); err != nil {
		t.Fatal(err)
	}
	for c, want := range map[byte]bool{'b': true, 'c': false, 'd': true} {
		if _, ok := s.Get(key(c)); ok != want {
			t.Errorf("after touching b and putting d: Get(%c) hit=%v, want %v", c, ok, want)
		}
	}
	if n := s.Len(); n != 2 {
		t.Errorf("Len = %d, want 2", n)
	}
}

func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	val := []byte(`{"result":1}`)
	if err := New(dir, ".r5.json", 4, nil).Put(key('e'), val); err != nil {
		t.Fatal(err)
	}
	// A fresh store (empty memory) reads the sealed file back.
	s := New(dir, ".r5.json", 4, nil)
	path := s.Path(key('e'))
	if want := filepath.Join(dir, strings.Repeat("e", 64)+".r5.json"); path != want {
		t.Errorf("Path = %s, want %s", path, want)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, Seal(val)) {
		t.Errorf("entry file is %q, want the sealed value", data)
	}
	if got, ok := s.Get(key('e')); !ok || !bytes.Equal(got, val) {
		t.Errorf("Get = %q, %v; want %q", got, ok, val)
	}
	if s.Len() != 1 {
		t.Error("disk hit was not promoted into memory")
	}
	// A store without a memory layer still reads and writes the directory.
	if got, ok := New(dir, ".r5.json", 0, nil).Get(key('e')); !ok || !bytes.Equal(got, val) {
		t.Errorf("memoryless Get = %q, %v", got, ok)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d files, want just the entry (temp files leaked?)", len(entries))
	}
}

func TestQuarantine(t *testing.T) {
	for name, damage := range map[string]func([]byte) []byte{
		"truncated": func(b []byte) []byte { return b[:10] },
		"flipped-bit": func(b []byte) []byte {
			b[len(b)/3] ^= 0x40
			return b
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := New(dir, ".json", 0, nil).Put(key('f'), []byte(`{"output":"table 1"}`)); err != nil {
				t.Fatal(err)
			}
			var reports []string
			s := New(dir, ".json", 4, func(path, reason string) {
				reports = append(reports, fmt.Sprintf("%s: %s", path, reason))
			})
			path := s.Path(key('f'))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, damage(data), 0o644); err != nil {
				t.Fatal(err)
			}
			if v, ok := s.Get(key('f')); ok {
				t.Fatalf("damaged entry served: %q", v)
			}
			if len(reports) != 1 || !strings.HasPrefix(reports[0], path+": ") {
				t.Errorf("onCorrupt reports = %q, want one for %s", reports, path)
			}
			if _, err := os.Stat(path + ".corrupt"); err != nil {
				t.Errorf("no quarantine file: %v", err)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("damaged entry still under its real name: %v", err)
			}
			// The quarantined key is an ordinary miss from now on.
			if _, ok := s.Get(key('f')); ok || len(reports) != 1 {
				t.Errorf("second Get: hit=%v, reports=%d", ok, len(reports))
			}
		})
	}
}

func TestPutReportsDiskFailure(t *testing.T) {
	s := New(filepath.Join(t.TempDir(), "missing"), ".json", 4, nil)
	if err := s.Put(key('a'), []byte("v")); err == nil {
		t.Fatal("Put into a missing directory reported no error")
	}
	// The value still serves from memory.
	if v, ok := s.Get(key('a')); !ok || string(v) != "v" {
		t.Errorf("Get after failed disk write = %q, %v", v, ok)
	}
}

func TestWriteAtomicReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	for _, data := range []string{"first\n", "second\n", ""} {
		if err := WriteAtomic(path, []byte(data)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != data {
			t.Errorf("after WriteAtomic(%q) the file holds %q", data, got)
		}
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d files, want 1", len(entries))
	}
}
