// Package fixture exercises the locks analyzer: Lock calls a return path
// can bypass (get's and snapshot's by-value copies are go vet's copylocks).
package fixture

import "sync"

type cache struct {
	mu      sync.Mutex
	entries map[string]int
}

func (c cache) get(key string) int {
	return c.entries[key]
}

func (c *cache) put(key string, v int) error {
	c.mu.Lock() //want locks
	if v < 0 {
		return nil
	}
	c.entries[key] = v
	c.mu.Unlock()
	return nil
}

func (c *cache) size() int {
	c.mu.Lock() //want locks
	return len(c.entries)
}

func snapshot(c *cache) cache {
	return *c
}

// One arm of the statement unlocks and returns, another returns with
// the lock still held: the unlock elsewhere in the same statement
// must not hide the escaping return.
func (c *cache) evict(k int) {
	c.mu.Lock() //want locks
	switch k {
	case 1:
		c.mu.Unlock()
		return
	case 2:
		return
	}
	c.mu.Unlock()
}

func (c *cache) await(done, stop chan struct{}) {
	c.mu.Lock() //want locks
	select {
	case <-done:
		c.mu.Unlock()
		return
	case <-stop:
		return
	default:
	}
	c.mu.Unlock()
}

func (c *cache) drop(key string, force bool) {
	c.mu.Lock() //want locks
	if force {
		c.mu.Unlock()
		return
	} else if key == "" {
		return
	}
	delete(c.entries, key)
	c.mu.Unlock()
}
