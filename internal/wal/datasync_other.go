//go:build !linux

package wal

import "os"

// datasync forces f; without fdatasync(2) it is f.Sync.
func datasync(f *os.File) error { return f.Sync() }
