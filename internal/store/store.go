// Package store is Contender's versioned knowledge store: trained
// predictor snapshots published as content-fingerprinted immutable
// versions with checksums, over a pluggable byte Repository (disk or
// memory), with an in-memory cache tier above it.
//
// The design splits responsibility the way a production model registry
// would:
//
//   - the Repository moves bytes and guarantees atomic publication
//     (write-then-rename), nothing else;
//   - the Store names versions by a SHA-256 content fingerprint, records
//     them in a manifest (itself atomically replaced), verifies a full
//     checksum plus structural validation on every cold read, and caches
//     decoded snapshots so repeated loads are free.
//
// Corruption is never silent: a blob whose bytes no longer match the
// manifest checksum, or whose decoded snapshot fails validation, surfaces
// as an error matching resilience.ErrCorruptMeasurement through
// errors.Is. Crash-safety falls out of the write protocol — a snapshot
// blob is only referenced after its rename, and the manifest replaces the
// previous one in a single rename — so a kill -9 at any instant leaves at
// worst *.tmp debris and an unreferenced blob, both swept by Open, and
// never an unreadable store. When the current version itself is found
// corrupt at Open (torn disk, bit rot), the store falls back to the
// newest prior version that still verifies and reports the demotion.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"strings"
	"sync"

	"contender/internal/core"
	"contender/internal/resilience"
)

// manifestName is the blob holding the version index.
const manifestName = "manifest.json"

// snapshotPrefix + fingerprint + snapshotExt names a snapshot blob.
const (
	snapshotPrefix = "sn-"
	snapshotExt    = ".json"
)

// fingerprintLen is the hex length of a version fingerprint (the leading
// 16 bytes of the snapshot's SHA-256).
const fingerprintLen = 32

// manifestVersion guards against loading manifests written by an
// incompatible layout.
const manifestVersion = 1

// Sentinel errors; test with errors.Is.
var (
	// ErrNoVersions: the store holds no published (or no previous)
	// version for the requested operation.
	ErrNoVersions = resilience.Permanent(errors.New("store: no published versions"))
	// ErrUnknownVersion: the requested fingerprint is not in the
	// manifest.
	ErrUnknownVersion = resilience.Permanent(errors.New("store: unknown version"))
)

func resilientConfigErr(msg string) error {
	return resilience.Permanent(errors.New("store: " + msg))
}

// Version identifies one published snapshot.
type Version struct {
	// Seq is the publication sequence number, ascending from 1. A
	// fingerprint republished after a rollback gets a fresh Seq.
	Seq int `json:"seq"`
	// Fingerprint is the content identity: hex of the leading 16 bytes
	// of the SHA-256 over the canonical snapshot encoding. Identical
	// knowledge publishes to the identical fingerprint.
	Fingerprint string `json:"fingerprint"`
	// Checksum is the full SHA-256 hex of the stored bytes, verified on
	// every cold read.
	Checksum string `json:"checksum"`
	// Note is the publisher's free-form annotation (e.g. "baseline",
	// "retrain T22,T61").
	Note string `json:"note,omitempty"`
}

// IsZero reports whether v is the zero Version (no version).
func (v Version) IsZero() bool { return v.Fingerprint == "" }

// manifest is the persisted version index. It is replaced atomically as
// a whole, so readers always see a consistent current/history pair.
type manifest struct {
	Version int       `json:"version"`
	Current string    `json:"current,omitempty"`
	History []Version `json:"history,omitempty"`
}

// OpenReport describes what recovery found (and repaired) while opening
// a store.
type OpenReport struct {
	// RemovedTemp lists *.tmp debris from crashed atomic writes that
	// Open swept away.
	RemovedTemp []string
	// CorruptVersions lists fingerprints whose blobs failed checksum or
	// structural validation at Open.
	CorruptVersions []string
	// FellBackTo is the fingerprint now serving because the manifest's
	// current version was corrupt (empty when no fallback happened).
	FellBackTo string
}

// Recovered reports whether Open had to repair anything.
func (r OpenReport) Recovered() bool {
	return len(r.RemovedTemp) > 0 || len(r.CorruptVersions) > 0 || r.FellBackTo != ""
}

// cacheEntry is one decoded snapshot in the in-memory tier. Entries are
// immutable once inserted: raw is exactly the stored bytes, snap the
// decoded (and validated) form shared read-only by all callers.
type cacheEntry struct {
	raw  []byte
	snap *core.Snapshot
}

// Store is a versioned knowledge store. All methods are safe for
// concurrent use. Snapshots returned by Load/CurrentSnapshot are shared
// and must be treated as read-only; CurrentPredictor builds a private
// predictor per call.
type Store struct {
	repo Repository

	mu     sync.Mutex
	man    manifest
	cache  map[string]*cacheEntry
	report OpenReport
}

// Open opens (or initializes) a disk-backed store in dir, running crash
// recovery: *.tmp debris is swept, the current version is checksum- and
// structure-verified, and a corrupt current falls back to the newest
// prior version that verifies. Inspect Report for what recovery did.
func Open(dir string) (*Store, error) {
	repo, err := NewDiskRepository(dir)
	if err != nil {
		return nil, err
	}
	return New(repo)
}

// New opens a store over an arbitrary Repository with the same recovery
// protocol as Open.
func New(repo Repository) (*Store, error) {
	if repo == nil {
		return nil, resilientConfigErr("nil repository")
	}
	s := &Store{repo: repo, cache: map[string]*cacheEntry{}, man: manifest{Version: manifestVersion}}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// recover sweeps crash debris and verifies the manifest chain.
func (s *Store) recover() error {
	names, err := s.repo.List()
	if err != nil {
		return err
	}
	hasManifest := false
	for _, name := range names {
		if strings.HasSuffix(name, tmpSuffix) {
			if err := s.repo.Remove(name); err != nil {
				return err
			}
			s.report.RemovedTemp = append(s.report.RemovedTemp, name)
			continue
		}
		if name == manifestName {
			hasManifest = true
		}
	}
	if !hasManifest {
		return nil // fresh store
	}
	raw, err := s.repo.Read(manifestName)
	if err != nil {
		return err
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return resilience.Corrupt(fmt.Errorf("store: manifest unreadable: %w", err))
	}
	if man.Version != manifestVersion {
		return resilientConfigErr(fmt.Sprintf("manifest version %d, want %d", man.Version, manifestVersion))
	}
	s.man = man
	if s.man.Current == "" {
		return nil
	}

	// Verify the current version; on corruption, demote and walk the
	// history newest-first for a version that still verifies.
	if _, err := s.loadLocked(s.man.Current); err == nil {
		return nil
	} else if !errors.Is(err, resilience.ErrCorruptMeasurement) && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	corrupt := map[string]bool{s.man.Current: true}
	s.report.CorruptVersions = append(s.report.CorruptVersions, s.man.Current)
	fallback := ""
	for i := len(s.man.History) - 1; i >= 0; i-- {
		fp := s.man.History[i].Fingerprint
		if corrupt[fp] {
			continue
		}
		if _, err := s.loadLocked(fp); err == nil {
			fallback = fp
			break
		} else if errors.Is(err, resilience.ErrCorruptMeasurement) || errors.Is(err, fs.ErrNotExist) {
			corrupt[fp] = true
			s.report.CorruptVersions = append(s.report.CorruptVersions, fp)
		} else {
			return err
		}
	}
	// Drop corrupt entries from the history and repoint current; the
	// rewritten manifest is itself published atomically.
	kept := s.man.History[:0]
	for _, v := range s.man.History {
		if !corrupt[v.Fingerprint] {
			kept = append(kept, v)
		}
	}
	s.man.History = kept
	s.man.Current = fallback
	s.report.FellBackTo = fallback
	return s.writeManifestLocked()
}

// Report returns what recovery found when the store was opened.
func (s *Store) Report() OpenReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.report
}

// encode renders the canonical snapshot bytes and their identity: the
// version fingerprint (leading 16 bytes of the SHA-256, hex) and the
// full-checksum hex.
func encode(snap *core.Snapshot) (raw []byte, fingerprint, checksum string, err error) {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(snap); err != nil {
		return nil, "", "", fmt.Errorf("store: encoding snapshot: %w", err)
	}
	raw = []byte(b.String())
	sum := sha256.Sum256(raw)
	checksum = hex.EncodeToString(sum[:])
	return raw, checksum[:fingerprintLen], checksum, nil
}

func snapshotName(fingerprint string) string {
	return snapshotPrefix + fingerprint + snapshotExt
}

// isFingerprint reports whether fp has the form encode gives a
// fingerprint: fingerprintLen lowercase hex digits.
func isFingerprint(fp string) bool {
	if len(fp) != fingerprintLen {
		return false
	}
	for i := 0; i < len(fp); i++ {
		if c := fp[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Publish records snap as the current version, writing the snapshot blob
// atomically and then the manifest atomically — a crash between the two
// leaves an unreferenced blob and the previous version intact.
// Publishing bytes identical to the current version is a no-op returning
// the existing Version.
func (s *Store) Publish(snap *core.Snapshot, note string) (Version, error) {
	if snap == nil {
		return Version{}, resilientConfigErr("publish needs a snapshot")
	}
	if err := snap.Validate(); err != nil {
		return Version{}, fmt.Errorf("store: refusing to publish: %w", err)
	}
	raw, fp, sum, err := encode(snap)
	if err != nil {
		return Version{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.man.Current == fp {
		v, _ := s.versionLocked(fp)
		return v, nil
	}
	// Content-addressed blobs never change, so republishing a historical
	// fingerprint only needs a new manifest entry.
	if _, known := s.versionLocked(fp); !known {
		if err := s.repo.WriteAtomic(snapshotName(fp), raw); err != nil {
			return Version{}, err
		}
	}
	v := Version{Seq: s.nextSeqLocked(), Fingerprint: fp, Checksum: sum, Note: note}
	man := s.man
	man.History = append(append([]Version(nil), s.man.History...), v)
	man.Current = fp
	prev := s.man
	s.man = man
	if err := s.writeManifestLocked(); err != nil {
		s.man = prev
		return Version{}, err
	}
	s.cache[fp] = &cacheEntry{raw: raw, snap: snap}
	return v, nil
}

func (s *Store) nextSeqLocked() int {
	max := 0
	for _, v := range s.man.History {
		if v.Seq > max {
			max = v.Seq
		}
	}
	return max + 1
}

// versionLocked returns the newest history entry for a fingerprint.
func (s *Store) versionLocked(fingerprint string) (Version, bool) {
	for i := len(s.man.History) - 1; i >= 0; i-- {
		if s.man.History[i].Fingerprint == fingerprint {
			return s.man.History[i], true
		}
	}
	return Version{}, false
}

func (s *Store) writeManifestLocked() error {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.man); err != nil {
		return fmt.Errorf("store: encoding manifest: %w", err)
	}
	return s.repo.WriteAtomic(manifestName, []byte(b.String()))
}

// Current returns the current version, or ok=false on an empty store.
func (s *Store) Current() (Version, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.man.Current == "" {
		return Version{}, false
	}
	return s.versionLocked(s.man.Current)
}

// Versions returns the publication history, ascending by Seq. Entries
// whose blobs were found corrupt at Open are not included.
func (s *Store) Versions() []Version {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Version(nil), s.man.History...)
}

// Load returns the decoded snapshot for a fingerprint, from cache when
// warm, verifying checksum and structure on a cold read. The returned
// snapshot is shared: treat it as read-only.
func (s *Store) Load(fingerprint string) (*core.Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loadLocked(fingerprint)
}

func (s *Store) loadLocked(fingerprint string) (*core.Snapshot, error) {
	if e, ok := s.cache[fingerprint]; ok {
		return e.snap, nil
	}
	v, ok := s.versionLocked(fingerprint)
	if !ok && s.man.Current != fingerprint {
		return nil, fmt.Errorf("%w: %s", ErrUnknownVersion, fingerprint)
	}
	// The manifest names blobs by fingerprint: one that is not a
	// fingerprint could name any blob, or a path outside the repository.
	if !isFingerprint(fingerprint) {
		return nil, resilience.Corrupt(fmt.Errorf("store: manifest names version %q, which is not a fingerprint", fingerprint))
	}
	raw, err := s.repo.Read(snapshotName(fingerprint))
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(raw)
	got := hex.EncodeToString(sum[:])
	want := v.Checksum
	if want == "" {
		// Current set by a manifest whose history lost the entry; fall
		// back to the content address itself.
		want = fingerprint
		got = got[:fingerprintLen]
	}
	if got != want {
		return nil, resilience.Corrupt(fmt.Errorf("store: snapshot %s checksum mismatch", fingerprint))
	}
	var snap core.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, resilience.Corrupt(fmt.Errorf("store: snapshot %s undecodable: %w", fingerprint, err))
	}
	if err := snap.Validate(); err != nil {
		return nil, resilience.Corrupt(fmt.Errorf("store: snapshot %s invalid: %w", fingerprint, err))
	}
	s.cache[fingerprint] = &cacheEntry{raw: raw, snap: &snap}
	return &snap, nil
}

// CurrentSnapshot returns the current version's decoded snapshot (shared,
// read-only) and its Version. ErrNoVersions when the store is empty.
func (s *Store) CurrentSnapshot() (*core.Snapshot, Version, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.man.Current == "" {
		return nil, Version{}, ErrNoVersions
	}
	v, _ := s.versionLocked(s.man.Current)
	snap, err := s.loadLocked(s.man.Current)
	if err != nil {
		return nil, Version{}, err
	}
	return snap, v, nil
}

// CurrentPredictor builds a fresh predictor from the current version —
// the load path a serving process uses at startup.
func (s *Store) CurrentPredictor() (*core.Predictor, Version, error) {
	snap, v, err := s.CurrentSnapshot()
	if err != nil {
		return nil, Version{}, err
	}
	p, err := core.PredictorFromSnapshot(snap)
	if err != nil {
		return nil, Version{}, err
	}
	return p, v, nil
}

// Rollback repoints the store at the newest history entry with a
// different fingerprint than the current version, returning it. The
// demoted version stays in history (its blob is content-addressed and
// immutable) and can be republished.
func (s *Store) Rollback() (Version, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.man.Current == "" {
		return Version{}, ErrNoVersions
	}
	cur, _ := s.versionLocked(s.man.Current)
	var prev Version
	found := false
	for i := len(s.man.History) - 1; i >= 0; i-- {
		v := s.man.History[i]
		if v.Seq < cur.Seq && v.Fingerprint != cur.Fingerprint {
			prev, found = v, true
			break
		}
	}
	if !found {
		return Version{}, fmt.Errorf("%w: nothing to roll back to", ErrNoVersions)
	}
	old := s.man.Current
	s.man.Current = prev.Fingerprint
	if err := s.writeManifestLocked(); err != nil {
		s.man.Current = old
		return Version{}, err
	}
	return prev, nil
}

// Len returns the number of history entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.man.History)
}
