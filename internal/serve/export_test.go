package serve

import "sort"

// StoreCheckpoints lists the store's live checkpoint keys.
func (s *Server) StoreCheckpoints() []string {
	if s.store == nil {
		return nil
	}
	var keys []string
	for _, rec := range s.store.Records() {
		if rec.Kind == "checkpoint" {
			keys = append(keys, rec.Key)
		}
	}
	sort.Strings(keys)
	return keys
}

// size reports how many resolutions the memo holds.
func (m *RunMemo) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.digests)
}
