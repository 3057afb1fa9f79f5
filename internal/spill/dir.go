package spill

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// runFileName names the one spill file inside a run directory.
const runFileName = "run.spill"

// errRemoved is what a seal gets from a Dir that was already removed.
var errRemoved = errors.New("spill: run directory already removed")

// Dir is one run's private spill directory and the one file in it that
// every sealed run of the run — from any sorter or buffer on any worker —
// is appended to as an extent. A seal reserves its extent atomically at
// the end of the file and fills it with one positioned write, so
// concurrent seals never share bytes and need no lock. Cleanup is a single
// Remove no matter how the run ends — success, error, or cancellation.
type Dir struct {
	path    string
	once    sync.Once // opens f, or records that Remove came first
	f       *os.File
	err     error
	end     atomic.Int64 // bytes of f reserved by seals so far
	removed atomic.Bool
}

// NewDir creates a fresh run directory under base ("" uses the system
// temp directory).
func NewDir(base string) (*Dir, error) {
	if base == "" {
		base = os.TempDir()
	}
	path, err := os.MkdirTemp(base, "parajoin-spill-*")
	if err != nil {
		return nil, fmt.Errorf("spill: creating run directory: %w", err)
	}
	counters.dirsCreated.Add(1)
	counters.activeDirs.Add(1)
	return &Dir{path: path}, nil
}

// Path returns the directory's path.
func (d *Dir) Path() string { return d.path }

// Create creates the run file the first time it is called and returns d,
// the directory that holds it; later calls return d at once, or the first
// call's error, and every call after Remove fails. It is what
// Config.Create expects.
func (d *Dir) Create() (*Dir, error) {
	d.once.Do(func() {
		d.f, d.err = os.OpenFile(filepath.Join(d.path, runFileName), os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o600)
		if d.err != nil {
			d.err = fmt.Errorf("spill: creating run file: %w", d.err)
		}
	})
	if d.err != nil {
		return nil, d.err
	}
	if d.removed.Load() {
		return nil, errRemoved
	}
	return d, nil
}

// append writes data as a new extent at the end of the run file and
// returns the extent's offset. Create must have succeeded.
func (d *Dir) append(data []byte) (int64, error) {
	n := int64(len(data))
	off := d.end.Add(n) - n
	if _, err := d.f.WriteAt(data, off); err != nil {
		return 0, fmt.Errorf("spill: writing run file: %w", err)
	}
	return off, nil
}

// Remove closes the run file and deletes the directory and everything in
// it. Idempotent. Every reader of the run's extents must be done first: a
// segment read after Remove fails with an error, and so does a seal.
func (d *Dir) Remove() error {
	if d.removed.Swap(true) {
		return nil
	}
	counters.activeDirs.Add(-1)
	d.once.Do(func() { d.err = errRemoved })
	var closeErr error
	if d.f != nil {
		closeErr = d.f.Close()
	}
	if err := os.RemoveAll(d.path); err != nil {
		return err
	}
	return closeErr
}
