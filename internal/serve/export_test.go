package serve

// size reports how many resolutions the memo holds.
func (m *RunMemo) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.digests)
}
