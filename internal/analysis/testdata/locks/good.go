package fixture

import "sync"

type registry struct {
	mu    sync.RWMutex
	items map[string]int
}

func (r *registry) get(key string) (int, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.items[key]
	return v, ok
}

func (r *registry) put(key string, v int) {
	r.mu.Lock()
	r.items[key] = v
	r.mu.Unlock()
}

func (r *registry) len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.items)
}

// Every arm that returns unlocks first: the near-misses of bad.go's
// evict/await/drop.
func (r *registry) evict(k int) {
	r.mu.Lock()
	switch k {
	case 1:
		r.mu.Unlock()
		return
	case 2:
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()
}

func (r *registry) await(done, stop chan struct{}) {
	r.mu.Lock()
	select {
	case <-done:
		r.mu.Unlock()
		return
	case <-stop:
		r.mu.Unlock()
		return
	default:
	}
	r.mu.Unlock()
}

func (r *registry) drop(key string, force bool) {
	r.mu.Lock()
	if force {
		r.mu.Unlock()
		return
	} else if key == "" {
		r.mu.Unlock()
		return
	}
	delete(r.items, key)
	r.mu.Unlock()
}
