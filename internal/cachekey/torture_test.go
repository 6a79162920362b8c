package cachekey

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"
)

// TestTortureTruncateAtEveryByte mirrors the resultstore power-cut
// torture test: a cached entry truncated at every possible byte
// offset must degrade to a cold miss — the store may never serve a
// partial or corrupted payload as a hit.
func TestTortureTruncateAtEveryByte(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l := st.Layer("run")
	key := Hash("torture-entry")
	payload := []byte(`{"experiment":"saxpy_512_1_8_4","elapsed":2.25,"text":"Kernel done"}`)
	if err := l.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(l.path(key))
	if err != nil {
		t.Fatal(err)
	}

	for n := 0; n < len(full); n++ {
		if err := os.WriteFile(l.path(key), full[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := get(l, key); ok {
			t.Fatalf("truncation at byte %d/%d served a hit (%q); must be a cold miss",
				n, len(full), got)
		}
	}
	// The intact entry still hits.
	if err := os.WriteFile(l.path(key), full, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, ok := get(l, key); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("intact entry must hit with the exact payload, got %q, %v", got, ok)
	}
}

// TestTortureFlipEveryByte corrupts each byte of the entry file in
// turn: every flip must be detected (header or digest mismatch) and
// reported as a miss, never as a different payload.
func TestTortureFlipEveryByte(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l := st.Layer("run")
	key := Hash("flip-entry")
	payload := []byte("content-addressed outcome bytes, checksummed end to end")
	if err := l.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(l.path(key))
	if err != nil {
		t.Fatal(err)
	}

	for i := range full {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0x5a
		if err := os.WriteFile(l.path(key), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := get(l, key); ok {
			t.Fatalf("flip at byte %d served a hit (%q); must be a cold miss", i, got)
		}
	}
}

// TestTortureConcurrentSameKeyWriters races many writers of the same
// key against readers: at every instant a reader must observe either
// a miss or one writer's payload, complete and intact — never a torn
// mix. (Content addressing means real writers store identical bytes;
// distinct payloads here make torn writes detectable.)
func TestTortureConcurrentSameKeyWriters(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l := st.Layer("run")
	key := Hash("contended-key")

	const writers = 8
	const rounds = 40
	valid := map[string]bool{}
	for w := 0; w < writers; w++ {
		valid[payloadFor(w)] = true
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			data := []byte(payloadFor(w))
			for r := 0; r < rounds; r++ {
				if err := l.Put(key, data); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	readErrs := make(chan string, 1024)
	var rg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for i := 0; i < 200; i++ {
				got, ok := get(l, key)
				if ok && !valid[string(got)] {
					select {
					case readErrs <- string(got):
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	rg.Wait()
	close(readErrs)
	if torn, ok := <-readErrs; ok {
		t.Fatalf("reader observed a torn/foreign payload: %q", torn)
	}

	got, ok := get(l, key)
	if !ok || !valid[string(got)] {
		t.Fatalf("final read must hit with one writer's intact payload, got %q, %v", got, ok)
	}
}

func payloadFor(w int) string {
	return fmt.Sprintf("writer-%d payload: %064d", w, w)
}
