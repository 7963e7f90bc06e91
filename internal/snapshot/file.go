package snapshot

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fenrir/internal/core"
)

func unixNanoUTC(ns int64) time.Time      { return time.Unix(0, ns).UTC() }
func timeDuration(ns int64) time.Duration { return time.Duration(ns) }

// SaveMonitor atomically writes a monitor snapshot to path: the bytes
// land in a temporary file in the same directory and are renamed into
// place, so a crash mid-checkpoint leaves the previous snapshot intact
// rather than a truncated file, and the directory is synced so the
// rename survives a power loss. Returns the encoded size.
func SaveMonitor(path string, st core.MonitorState) (int, error) {
	var buf bytes.Buffer
	if err := EncodeMonitor(&buf, st); err != nil {
		return 0, err
	}
	return buf.Len(), writeAtomic(path, buf.Bytes())
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

// writeAtomic writes data to path via a same-directory temp file and
// rename, fsyncing the file before the swap and the directory after it.
// Without the directory sync a power loss could keep a later unlink
// elsewhere (a rebalance removing the tenant's source file) and lose
// the rename, leaving no checkpoint at all.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}
