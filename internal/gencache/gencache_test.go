package gencache

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

const testGen = 64

// touch gets key twice, so it is past admission and stored.
func touch(c *Cache[string], key string) {
	for range 2 {
		c.Get(key, func() string { return "v:" + key })
	}
}

func (c *Cache[V]) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.cur) + len(c.prev)
}

func (c *Cache[V]) holds(key string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, cur := c.cur[key]
	_, prev := c.prev[key]
	return cur || prev
}

func TestTwoGenerationEviction(t *testing.T) {
	c := New[string](testGen)
	hotCalls := 0
	getHot := func() { c.Get("hot", func() string { hotCalls++; return "v:hot" }) }
	getHot()
	getHot()
	// Cross the generation cap twice, touching the hot key between
	// fills so each rotation finds it recently used.
	for gen := 0; gen < 2; gen++ {
		for i := 0; i < testGen; i++ {
			touch(c, fmt.Sprintf("cold-%d-%d", gen, i))
		}
		getHot()
	}
	if n := c.len(); n > 2*testGen {
		t.Errorf("cache holds %d entries, want <= %d (two generations)", n, 2*testGen)
	}
	if hotCalls != 2 {
		t.Errorf("hot key computed %d times, want 2: evicted despite being touched every generation", hotCalls)
	}
}

func TestColdEntriesEventuallyEvicted(t *testing.T) {
	c := New[string](testGen)
	cold := "cold-once"
	touch(c, cold)
	if !c.holds(cold) {
		t.Fatal("key not stored on its second sighting")
	}
	// Two full generations of fresh keys with no further touch: the
	// entry must age out.
	for i := 0; i < 2*testGen+1; i++ {
		touch(c, fmt.Sprintf("filler-%d", i))
	}
	if c.holds(cold) {
		t.Error("cold entry survived two full generations")
	}
}

// A key seen once is computed but never stored: pages that mint a
// unique script per load must not fill the cache with one-shot values.
func TestSingleSightingNotStored(t *testing.T) {
	c := New[string](testGen)
	calls := 0
	get := func(key string) string {
		return c.Get(key, func() string { calls++; return "v:" + key })
	}
	for i := 0; i < 4*testGen; i++ {
		if v := get(fmt.Sprintf("unique-%d", i)); v != fmt.Sprintf("v:unique-%d", i) {
			t.Fatalf("Get = %q", v)
		}
	}
	if n := c.len(); n != 0 {
		t.Errorf("cache holds %d one-shot entries, want 0", n)
	}

	calls = 0
	for range 3 {
		get("repeat")
	}
	if calls != 2 {
		t.Errorf("compute ran %d times for a repeated key, want 2 (admitted on the second sighting)", calls)
	}
	if !c.holds("repeat") {
		t.Error("repeated key not stored")
	}
}

func TestErrorsCached(t *testing.T) {
	type entry struct{ err error }
	c := New[entry](testGen)
	errBad := errors.New("bad input")
	calls := 0
	for range 5 {
		e := c.Get("bad", func() entry { calls++; return entry{err: errBad} })
		if !errors.Is(e.err, errBad) {
			t.Fatalf("Get err = %v, want %v", e.err, errBad)
		}
	}
	if calls != 2 {
		t.Errorf("compute ran %d times for a failing key, want 2", calls)
	}
}

// Run under -race: concurrent hits, misses, admissions and rotations.
func TestConcurrentGet(t *testing.T) {
	c := New[string](testGen)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4*testGen; i++ {
				key := fmt.Sprintf("k-%d", (i*7+w)%(3*testGen))
				if v := c.Get(key, func() string { return "v:" + key }); v != "v:"+key {
					t.Errorf("Get(%q) = %q", key, v)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := c.len(); n > 2*testGen {
		t.Errorf("cache holds %d entries, want <= %d", n, 2*testGen)
	}
}
