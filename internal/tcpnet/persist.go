package tcpnet

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"

	"lht/internal/dht"
)

// snapshotFormat versions the on-disk layout. Format 3 stores values
// exactly as the wire tags them (see frame.go). Formats 1 and 2 held
// encoding/gob values — bare in format 1, behind tag 1 (optionally inside
// a tagEpoch prefix) in format 2 — and LoadSnapshot rewrites those into
// tagBinary once, on load. Gob survives only in that migration and in the
// snapshot container itself.
const snapshotFormat = 3

// legacyTagGob is the retired gob value tag of snapshot format 2.
const legacyTagGob = 1

type snapshot struct {
	Format int
	Store  map[string][]byte
}

// SaveSnapshot writes the node's store to path atomically (temp file +
// rename), so an lht-node can restart without losing its shard. Values
// are already serialized bytes, making the snapshot format trivially
// stable.
func (s *Server) SaveSnapshot(path string) error {
	s.mu.Lock()
	snap := snapshot{Format: snapshotFormat, Store: make(map[string][]byte, len(s.store))}
	for k, v := range s.store {
		cp := make([]byte, len(v))
		copy(cp, v)
		snap.Store[k] = cp
	}
	s.mu.Unlock()

	tmp, err := os.CreateTemp(filepath.Dir(path), ".lht-node-*")
	if err != nil {
		return fmt.Errorf("tcpnet: snapshot temp: %w", err)
	}
	defer func() { _ = os.Remove(tmp.Name()) }()
	if err := gob.NewEncoder(tmp).Encode(snap); err != nil {
		_ = tmp.Close()
		return fmt.Errorf("tcpnet: snapshot encode: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("tcpnet: snapshot close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("tcpnet: snapshot rename: %w", err)
	}
	return nil
}

// LoadSnapshot replaces the node's store with the snapshot at path. A
// missing file is not an error - it is simply a fresh node. Snapshots of
// formats 1 and 2 are migrated to format 3 in memory; a gob value whose
// type has no registered binary codec fails the load.
func (s *Server) LoadSnapshot(path string) error {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("tcpnet: snapshot open: %w", err)
	}
	defer func() { _ = f.Close() }()
	var snap snapshot
	if err := gob.NewDecoder(f).Decode(&snap); err != nil {
		return fmt.Errorf("tcpnet: snapshot decode: %w", err)
	}
	switch snap.Format {
	case snapshotFormat:
	case 1, 2:
		for k, v := range snap.Store {
			if snap.Format == 1 {
				v = append([]byte{legacyTagGob}, v...)
			}
			m, err := migrateValue(v)
			if err != nil {
				return fmt.Errorf("tcpnet: snapshot format %d key %q: %w", snap.Format, k, err)
			}
			snap.Store[k] = m
		}
	default:
		return fmt.Errorf("tcpnet: snapshot format %d, want %d", snap.Format, snapshotFormat)
	}
	s.mu.Lock()
	s.store = snap.Store
	if s.store == nil {
		s.store = make(map[string][]byte)
	}
	s.mu.Unlock()
	return nil
}

// migrateValue rewrites one format-2 tagged value: a gob value, bare or
// inside a tagEpoch prefix, is decoded and re-encoded exactly as the
// client's appendValue would ship it today; every other value is kept.
func migrateValue(v []byte) ([]byte, error) {
	inner := v
	if len(inner) > 0 && inner[0] == tagEpoch {
		c := cursor{b: inner[1:]}
		if _, err := c.uvarint(); err != nil {
			return nil, errors.New("truncated epoch tag")
		}
		inner = c.b
	}
	if len(inner) == 0 || inner[0] != legacyTagGob {
		return v, nil
	}
	legacyGobTypes()
	var val dht.Value
	if err := gob.NewDecoder(bytes.NewReader(inner[1:])).Decode(&val); err != nil {
		return nil, fmt.Errorf("decode gob value: %w", err)
	}
	return appendValue(nil, val)
}

// legacyGobTypes registers with encoding/gob every type a gob value in an
// old snapshot can hold: raw bytes and each type with a registered binary
// codec, under the names gob derives from the types themselves — the
// names the writing processes registered them under.
var legacyGobTypes = sync.OnceFunc(func() {
	gob.Register([]byte(nil))
	for _, v := range dht.RegisteredValues() {
		gob.Register(v)
	}
})
