package serve

// size reports how many resolutions the memo holds.
func (m *RunMemo) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.digests)
}

// len reports how many results are cached.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// subscriberCount reports the live subscribers, so a test can prove a
// disconnected client's subscription is released.
func (b *broker) subscriberCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}
