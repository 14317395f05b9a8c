package serve

import (
	"encoding/json"
	"fmt"
	"testing"
)

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(3)
	for i := 0; i < 3; i++ {
		c.put(fmt.Sprintf("d%d", i), json.RawMessage(fmt.Sprintf("%d", i)))
	}
	// Touch d0 so d1 becomes the LRU entry, then overflow.
	if _, ok := c.get("d0"); !ok {
		t.Fatal("d0 missing before eviction")
	}
	c.put("d3", json.RawMessage("3"))
	if c.len() != 3 {
		t.Fatalf("cache len = %d, want 3", c.len())
	}
	if _, ok := c.get("d1"); ok {
		t.Error("d1 survived eviction despite being LRU")
	}
	for _, want := range []string{"d0", "d2", "d3"} {
		if _, ok := c.get(want); !ok {
			t.Errorf("%s evicted, want kept", want)
		}
	}
}

func TestCacheUpdateRefreshes(t *testing.T) {
	c := newResultCache(2)
	c.put("a", json.RawMessage("1"))
	c.put("b", json.RawMessage("2"))
	c.put("a", json.RawMessage("3")) // update, not duplicate insert
	if c.len() != 2 {
		t.Fatalf("cache len = %d after update, want 2", c.len())
	}
	got, _ := c.get("a")
	if string(got) != "3" {
		t.Errorf("a = %s, want updated value 3", got)
	}
	c.put("c", json.RawMessage("4")) // evicts b (a was refreshed twice)
	if _, ok := c.get("b"); ok {
		t.Error("b survived, want evicted as LRU")
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newResultCache(-1)
	c.put("a", json.RawMessage("1"))
	if _, ok := c.get("a"); ok {
		t.Error("disabled cache stored a result")
	}
	if c.len() != 0 {
		t.Errorf("disabled cache len = %d", c.len())
	}
}
