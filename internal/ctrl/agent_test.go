package ctrl

import "flattree/internal/converter"

// Configs snapshots the active converter configurations.
func (a *Agent) Configs() map[uint32]converter.Config {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[uint32]converter.Config, len(a.active))
	for k, v := range a.active {
		out[k] = v
	}
	return out
}

// Commits returns how many epochs this agent has committed.
func (a *Agent) Commits() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.commits
}
