// Spill-file management. Every temp file the executor writes while
// spilling (external-sort runs, the grace partitions of a join or a
// grouping) is created through a SpillManager, which tracks the live set
// so a query can prove it leaked nothing: the disk-chaos oracle asserts
// Live() == 0 after every run, fault-injected or not, and Cleanup is the
// single deferred teardown the spillcleanup analyzer requires at every
// manager construction site.
package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// spillSeq distinguishes files across managers in one process; combined
// with the pid it keeps names unique even when several queries spill into
// the same directory concurrently.
var spillSeq atomic.Int64

// SpillManager hands out temp files under one directory and tracks which
// are still live. The directory is created lazily on the first Create, so
// constructing a manager never touches the disk (a query that stays in
// memory pays nothing, and a bad spill directory surfaces as a spill-time
// error the engine can fall back from rather than a setup failure).
// All methods are safe for concurrent use.
type SpillManager struct {
	dir string

	mu      sync.Mutex
	made    bool
	live    map[string]bool
	created int64
	removed int64
}

// NewSpillManager returns a manager that places temp files under dir.
func NewSpillManager(dir string) *SpillManager {
	return &SpillManager{dir: dir, live: make(map[string]bool)}
}

// Dir returns the spill directory.
func (m *SpillManager) Dir() string { return m.dir }

// Create makes a new empty spill file with a unique name and registers it
// as live. The caller owns the handle and must Remove the path when done
// (Cleanup sweeps anything left behind).
func (m *SpillManager) Create(tag string) (*os.File, error) {
	m.mu.Lock()
	if !m.made {
		if err := os.MkdirAll(m.dir, 0o755); err != nil {
			m.mu.Unlock()
			return nil, fmt.Errorf("storage: spill dir %s: %w", m.dir, err)
		}
		m.made = true
	}
	m.mu.Unlock()
	name := fmt.Sprintf("gbj-spill-%d-%d-%s.tmp", os.Getpid(), spillSeq.Add(1), tag)
	path := filepath.Join(m.dir, name)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return nil, fmt.Errorf("storage: create spill file: %w", err)
	}
	m.mu.Lock()
	m.live[path] = true
	m.created++
	m.mu.Unlock()
	return f, nil
}

// Remove deletes the spill file at path and drops it from the live set.
// Removing a path the manager does not own (or one already removed) is an
// error, keeping double-free bugs visible in tests.
func (m *SpillManager) Remove(path string) error {
	m.mu.Lock()
	if !m.live[path] {
		m.mu.Unlock()
		return fmt.Errorf("storage: remove of unknown spill file %s", path)
	}
	delete(m.live, path)
	m.removed++
	m.mu.Unlock()
	if err := os.Remove(path); err != nil {
		return fmt.Errorf("storage: remove spill file: %w", err)
	}
	return nil
}

// Live returns the number of spill files created but not yet removed.
func (m *SpillManager) Live() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.live)
}

// Created returns the total number of spill files ever created.
func (m *SpillManager) Created() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.created
}

// Cleanup removes every live spill file. It is the deferred backstop for
// error paths: operators remove their own files on the happy path, and
// Cleanup sweeps whatever an abandoned execution left behind. The first
// removal error is returned (removal of the rest is still attempted).
func (m *SpillManager) Cleanup() error {
	m.mu.Lock()
	paths := make([]string, 0, len(m.live))
	for p := range m.live {
		paths = append(paths, p)
	}
	for _, p := range paths {
		delete(m.live, p)
		m.removed++
	}
	m.mu.Unlock()
	var first error
	for _, p := range paths {
		if err := os.Remove(p); err != nil && first == nil {
			first = fmt.Errorf("storage: cleanup spill file: %w", err)
		}
	}
	return first
}
