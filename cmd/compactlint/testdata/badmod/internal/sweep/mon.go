// Package sweep is the smoke fixture for the atomicguard analyzer: a
// guardedby field read with no lock on the path. The package is also
// in lockorder's scope, so its mutex declares a rank, as the real
// sweep package's mutexes do.
package sweep

import "sync"

type monitor struct {
	mu    sync.Mutex //compactlint:lockrank 1
	cells []int      //compactlint:guardedby mu
}

func (m *monitor) fill(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cells = make([]int, n)
}

// racy violates atomicguard.
func (m *monitor) racy() int {
	return len(m.cells)
}
