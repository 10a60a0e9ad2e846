package promql

import (
	"container/list"
	"sync"
)

// parseCacheSize bounds the shared parsed-expression LRU. Grafana
// dashboards and the LB's access-control introspection re-issue the same
// panel queries continuously, so a small cache absorbs nearly all parses.
const parseCacheSize = 512

// parseCache is a bounded LRU of query text -> parsed expression.
type parseCache struct {
	mu      sync.Mutex
	max     int
	ll      *list.List // front = most recently used
	entries map[string]*list.Element
}

type parseCacheEntry struct {
	key  string
	expr Expr
	text string // expr.String(), printed on first request; guarded by mu
}

func newParseCache(max int) *parseCache {
	return &parseCache{max: max, ll: list.New(), entries: make(map[string]*list.Element)}
}

// get returns the entry for key, nil when absent, and its text as printed
// so far ("" until first printed).
func (c *parseCache) get(key string) (*parseCacheEntry, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, ""
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*parseCacheEntry)
	return e, e.text
}

// put inserts expr under key and returns the entry now cached for key: an
// entry a racing parse of the same text inserted first is kept, not
// replaced, so an entry's expression never changes once handed out.
func (c *parseCache) put(key string, expr Expr) (*parseCacheEntry, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*parseCacheEntry)
		return e, e.text
	}
	e := &parseCacheEntry{key: key, expr: expr}
	c.entries[key] = c.ll.PushFront(e)
	for c.ll.Len() > c.max {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.entries, back.Value.(*parseCacheEntry).key)
	}
	return e, ""
}

func (c *parseCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// parse returns the cached entry for input, parsing and inserting it on a
// miss, and the entry's text as printed so far.
func (c *parseCache) parse(input string) (*parseCacheEntry, string, error) {
	if e, text := c.get(input); e != nil {
		return e, text, nil
	}
	expr, err := ParseExpr(input)
	if err != nil {
		return nil, "", err
	}
	e, text := c.put(input, expr)
	return e, text, nil
}

var sharedParseCache = newParseCache(parseCacheSize)

// ParseExprCached is ParseExpr behind a process-wide bounded LRU keyed by
// the query text. Parsed expressions are immutable after construction — the
// evaluator and all tree walkers only read them — so cache hits are shared
// freely across goroutines. Parse errors are not cached.
func ParseExprCached(input string) (Expr, error) {
	e, _, err := sharedParseCache.parse(input)
	if err != nil {
		return nil, err
	}
	return e.expr, nil
}

// ParseNormalized is ParseExprCached that also returns the expression's
// canonical text, Expr.String(), which formatting variants of one query
// share. The text is printed once per cache entry, on its first request, and
// kept in the entry, so a repeat is one lookup.
func ParseNormalized(input string) (Expr, string, error) {
	e, text, err := sharedParseCache.parse(input)
	if err != nil {
		return nil, "", err
	}
	if text == "" {
		text = e.expr.String()
		sharedParseCache.mu.Lock()
		e.text = text
		sharedParseCache.mu.Unlock()
	}
	return e.expr, text, nil
}
