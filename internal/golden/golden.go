// Package golden pins simulator outputs across refactors. Digest
// fingerprints any value field by field — floats by their IEEE-754 bits,
// so two values share a digest only if they are bitwise identical — and a
// File compares named digests against a JSON file under testdata.
//
// Regenerate a golden file only when a change is meant to alter results:
//
//	go test ./internal/sim -run Golden -update-golden
package golden

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
)

var update = flag.Bool("update-golden", false, "rewrite golden digest files instead of comparing against them")

// Digest returns a short hex fingerprint of vs. Every field is hashed,
// unexported ones included, in declaration order; map entries are hashed in
// key-digest order. Channels, funcs and unsafe pointers are rejected.
func Digest(vs ...any) string {
	h := sha256.New()
	for _, v := range vs {
		write(h, reflect.ValueOf(v))
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

func write(h hash.Hash, v reflect.Value) {
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	switch v.Kind() {
	case reflect.Invalid:
		put(0)
	case reflect.Bool:
		if v.Bool() {
			put(1)
		} else {
			put(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		put(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		put(v.Uint())
	case reflect.Float32, reflect.Float64:
		put(math.Float64bits(v.Float()))
	case reflect.String:
		put(uint64(v.Len()))
		h.Write([]byte(v.String()))
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			put(0)
			return
		}
		put(1)
		write(h, v.Elem())
	case reflect.Slice, reflect.Array:
		put(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			write(h, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			write(h, v.Field(i))
		}
	case reflect.Map:
		type entry struct {
			key string
			val reflect.Value
		}
		entries := make([]entry, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			kh := sha256.New()
			write(kh, it.Key())
			entries = append(entries, entry{string(kh.Sum(nil)), it.Value()})
		}
		sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
		put(uint64(len(entries)))
		for _, e := range entries {
			h.Write([]byte(e.key))
			write(h, e.val)
		}
	default:
		panic(fmt.Sprintf("golden: cannot digest a %s", v.Type()))
	}
}

// File is a set of named digests stored as a JSON object. Check is safe
// for concurrent use by parallel subtests.
type File struct {
	path string

	mu   sync.Mutex
	want map[string]string
	got  map[string]string
}

// Open loads the golden file at path (relative to the test's package
// directory). When the test and its subtests finish, the file is rewritten
// under -update-golden; otherwise every stored entry must have been checked,
// so a case silently dropped from the test fails it.
func Open(t *testing.T, path string) *File {
	t.Helper()
	f := &File{path: path, want: map[string]string{}, got: map[string]string{}}
	if !*update {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("golden: %v (generate it with -update-golden)", err)
		}
		if err := json.Unmarshal(data, &f.want); err != nil {
			t.Fatalf("golden: %s: %v", path, err)
		}
	}
	t.Cleanup(func() { f.finish(t) })
	return f
}

// Check compares digest against the entry stored under name.
func (f *File) Check(t testing.TB, name, digest string) {
	t.Helper()
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, dup := f.got[name]; dup {
		t.Fatalf("golden: entry %q checked twice", name)
	}
	f.got[name] = digest
	if *update {
		return
	}
	want, ok := f.want[name]
	switch {
	case !ok:
		t.Errorf("golden: %s has no entry %q (digest %s)", f.path, name, digest)
	case want != digest:
		t.Errorf("golden: %s: digest %s, want %s", name, digest, want)
	}
}

func (f *File) finish(t *testing.T) {
	if t.Failed() || t.Skipped() {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if *update {
		data, err := json.MarshalIndent(f.got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(f.path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(f.path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for name := range f.want {
		if _, ok := f.got[name]; !ok {
			t.Errorf("golden: %s entry %q was not checked", f.path, name)
		}
	}
}
