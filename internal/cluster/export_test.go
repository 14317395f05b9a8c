package cluster

// RoutingStats exposes ring placement counters.
func (c *Coordinator) RoutingStats() (primary, rerouted, retries uint64) {
	return c.met.ringPrimary.Value(), c.met.ringRerouted.Value(), c.met.retries.Value()
}

// breakerTransitionCount sums transitions into `to` across the fleet
// ("" sums every transition).
func (m *metrics) breakerTransitionCount(to string) uint64 {
	return m.breakerTransitions.Value("", to)
}
