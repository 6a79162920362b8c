package buildcache

import (
	"fmt"
	"sync"
	"testing"
)

func TestPutGetContentAddressed(t *testing.T) {
	c := New()
	want := Entry{Hash: "abc", SpecText: "zlib@1.2.12"}
	c.Put(want)
	e, ok := c.Get("abc")
	if !ok || e != want {
		t.Fatalf("get = %+v, %v", e, ok)
	}
	// Re-pushing the same hash is idempotent (content addressing).
	c.Put(want)
	if e, ok := c.Get("abc"); !ok || e != want {
		t.Errorf("get after duplicate put = %+v, %v", e, ok)
	}
	if _, ok := c.Get("missing"); ok {
		t.Error("missing hash should miss")
	}
}

// TestConcurrentAccess hammers the cache from many goroutines; run
// with -race this is the concurrency-safety check for the shared
// community cache.
func TestConcurrentAccess(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := fmt.Sprintf("hash-%d", i)
			c.Put(Entry{Hash: h, SpecText: "zlib@1.2.12"})
			if _, ok := c.Get(h); !ok {
				t.Errorf("Get(%s) missed its own Put", h)
			}
			if _, ok := c.Get("never"); ok {
				t.Error("hit on a hash nobody has put")
			}
		}(i)
	}
	wg.Wait()
}
