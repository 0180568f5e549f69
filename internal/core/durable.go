package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"seep/internal/plan"
	"seep/internal/state"
	"seep/internal/stream"
)

// DurableStore persists checkpoints to a directory in addition to the
// in-memory backup store — the persist operation of §3.3 ("part of the
// operator state can be supported by external storage through a persist
// operation"). Backups survive a full process restart: a recovering
// deployment calls LoadAll to repopulate its backup store.
//
// Every file goes through ReplaceFile and RemoveFile, as the control
// plane's journal snapshot does: a checkpoint is synced before it is
// renamed into place, and the directory is synced after every rename and
// remove, so a crash leaves the previous checkpoint or the new one, and
// a Persist that returned is on disk.
type DurableStore struct {
	*BackupStore
	mu    sync.Mutex
	dir   string
	codec state.PayloadCodec
}

// NewDurableStore creates (or reuses) the directory and wraps a fresh
// in-memory backup store.
func NewDurableStore(dir string, codec state.PayloadCodec) (*DurableStore, error) {
	return NewDurableStoreOver(NewBackupStore(), dir, codec)
}

// NewDurableStoreOver layers disk persistence over an existing backup
// store. The coordinator uses this to make the manager's own store
// durable without doubling checkpoints in memory.
func NewDurableStoreOver(bs *BackupStore, dir string, codec state.PayloadCodec) (*DurableStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: create checkpoint dir: %w", err)
	}
	return &DurableStore{BackupStore: bs, dir: dir, codec: codec}, nil
}

// CorruptCheckpointError marks a checkpoint file LoadAll could not read
// or decode — a torn write from a crash, or disk rot. The file is
// skipped so the rest of the directory still recovers.
type CorruptCheckpointError struct {
	File string
	Err  error
}

func (e *CorruptCheckpointError) Error() string {
	return fmt.Sprintf("core: corrupt checkpoint %s: %v", e.File, e.Err)
}

func (e *CorruptCheckpointError) Unwrap() error { return e.Err }

func (s *DurableStore) fileFor(owner plan.InstanceID) string {
	name := fmt.Sprintf("%s-%d.ckpt", sanitize(string(owner.Op)), owner.Part)
	return filepath.Join(s.dir, name)
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, s)
}

// Store persists the checkpoint — for a delta, its fold — then records
// it in memory. If the disk write fails the in-memory store is not
// updated, so Latest never claims durability it does not have.
func (s *DurableStore) Store(host plan.InstanceID, cp *state.Checkpoint) error {
	return s.BackupStore.store(host, cp, func(full *state.Checkpoint) error {
		blob, err := state.MarshalCheckpoint(full, s.codec)
		if err != nil {
			return err
		}
		return s.Persist(full.Instance, blob)
	})
}

// StoreEncoded is Store for a checkpoint in wire form (see
// BackupStore.StoreEncoded): the bytes that arrived are the bytes
// written and the bytes kept.
func (s *DurableStore) StoreEncoded(host plan.InstanceID, h state.CheckpointHeader, blob []byte) error {
	if err := s.Persist(h.Instance, blob); err != nil {
		return err
	}
	return s.BackupStore.StoreEncoded(host, h, blob, s.codec)
}

// Persist writes owner's encoded checkpoint to disk without touching the
// in-memory store. The coordinator uses this for checkpoints the manager
// already holds in memory (plan-time replacement state) so
// the durable-file ordering invariant — files on disk before the plan is
// journaled — holds.
func (s *DurableStore) Persist(owner plan.InstanceID, blob []byte) error {
	s.mu.Lock()
	err := ReplaceFile(s.fileFor(owner), blob)
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("core: persist checkpoint: %w", err)
	}
	return nil
}

// Delete removes the backup from memory and disk.
func (s *DurableStore) Delete(owner plan.InstanceID) {
	s.BackupStore.Delete(owner)
	s.mu.Lock()
	_ = RemoveFile(s.fileFor(owner))
	s.mu.Unlock()
}

// ReplaceFile makes data the content of path so that a crash leaves the
// old file or the new one: it writes path.tmp, syncs it, renames it over
// path and syncs the directory. With RemoveFile it is the one writer of
// the control-plane directory. A failed write leaves path as it was; a
// stray path.tmp is harmless, since the next write truncates it.
func ReplaceFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// RemoveFile removes path and syncs its directory, so that the removal
// survives a crash.
func RemoveFile(path string) error {
	if err := os.Remove(path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir makes the directory's entries — creates, renames and removes
// — durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Load reads one persisted checkpoint from disk (without touching the
// in-memory store).
func (s *DurableStore) Load(owner plan.InstanceID) (*state.Checkpoint, error) {
	s.mu.Lock()
	b, err := os.ReadFile(s.fileFor(owner))
	s.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("core: load checkpoint: %w", err)
	}
	return state.DecodeCheckpoint(stream.NewDecoder(b), s.codec)
}

// LoadAll repopulates the in-memory store from every checkpoint file in
// the directory, attributing each to the given host chooser (typically
// Manager.BackupTarget). Files are stored as read (header checked, body
// decoded when first needed). A file that cannot be read or whose
// header or framing is bad — torn by a crash mid-write, rotted on disk,
// or in a layout this build no longer reads — is skipped and reported
// in skipped rather than failing the whole recovery: losing one backup
// costs a replay from that instance's upstreams, losing the recovery
// costs the job. Only a directory scan failure is fatal.
func (s *DurableStore) LoadAll(hostFor func(owner plan.InstanceID) (plan.InstanceID, error)) (owners []plan.InstanceID, skipped []*CorruptCheckpointError, err error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("core: scan checkpoint dir: %w", err)
	}
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".ckpt") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(s.dir, ent.Name()))
		if err != nil {
			skipped = append(skipped, &CorruptCheckpointError{File: ent.Name(), Err: err})
			continue
		}
		h, err := state.DecodeCheckpointHeader(b)
		if err != nil {
			skipped = append(skipped, &CorruptCheckpointError{File: ent.Name(), Err: err})
			continue
		}
		host, err := hostFor(h.Instance)
		if err != nil {
			continue
		}
		if err := s.BackupStore.StoreEncoded(host, h, b, s.codec); err != nil {
			return owners, skipped, err
		}
		owners = append(owners, h.Instance)
	}
	return owners, skipped, nil
}
