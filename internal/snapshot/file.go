package snapshot

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fenrir/internal/core"
)

func unixNanoUTC(ns int64) time.Time      { return time.Unix(0, ns).UTC() }
func timeDuration(ns int64) time.Duration { return time.Duration(ns) }

// SaveMonitor atomically writes a monitor snapshot to path and returns
// its size. The encoder streams straight into a temporary file in the
// same directory, which is fsynced, closed and renamed into place, so a
// crash mid-checkpoint leaves the previous snapshot intact rather than a
// truncated file. The directory is synced after the rename: without it
// a power loss could lose the rename after the caller was told the
// checkpoint is durable, leaving the previous snapshot, or none before
// a tenant's first. The temporary file is removed on any failure.
func SaveMonitor(path string, st core.MonitorState) (int, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name())
	size, err := encodeMonitor(tmp, st)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, err
	}
	return size, syncDir(dir)
}

// LoadMonitor reads a monitor snapshot file and restores the monitor.
func LoadMonitor(path string) (*core.Monitor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := DecodeMonitor(f)
	if err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", path, err)
	}
	m, err := core.RestoreMonitor(st)
	if err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", path, err)
	}
	return m, nil
}

// syncDir fsyncs a directory, making a rename into it durable. Tests
// replace it to observe the call.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
