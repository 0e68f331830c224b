package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"contender/internal/core"
	"contender/internal/resilience"
)

// testSnapshot builds a minimal structurally valid snapshot. The knob
// shifts the isolated latency so distinct knobs yield distinct
// fingerprints.
func testSnapshot(t testing.TB, knob float64) *core.Snapshot {
	t.Helper()
	doc := map[string]any{
		"version": 1,
		"templates": []map[string]any{
			{"id": 2, "isolated_latency": 10 + knob, "io_fraction": 0.5, "working_set_bytes": 1024,
				"plan_steps": 3, "records_accessed": 100, "scans": []string{"store_sales"},
				"spoilers": []map[string]any{{"mpl": 2, "latency": 12 + knob}}},
			{"id": 22, "isolated_latency": 20 + knob, "io_fraction": 0.4, "working_set_bytes": 2048,
				"plan_steps": 4, "records_accessed": 200, "scans": []string{"inventory"},
				"spoilers": []map[string]any{{"mpl": 2, "latency": 25 + knob}}},
		},
		"scan_times": map[string]float64{"inventory": 2, "store_sales": 1},
		"models": []map[string]any{
			{"mpl": 2, "template": 2, "mu": 0.5, "b": 1},
			{"mpl": 2, "template": 22, "mu": 0.7, "b": 2},
		},
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var snap core.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if err := snap.Validate(); err != nil {
		t.Fatalf("test snapshot invalid: %v", err)
	}
	return &snap
}

func TestPublishLoadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, ok := s.Current(); ok {
		t.Fatal("fresh store reports a current version")
	}
	if _, _, err := s.CurrentSnapshot(); !errors.Is(err, ErrNoVersions) {
		t.Fatalf("empty CurrentSnapshot err = %v, want ErrNoVersions", err)
	}

	v1, err := s.Publish(testSnapshot(t, 0), "baseline")
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if v1.Seq != 1 || v1.Fingerprint == "" || v1.Checksum == "" {
		t.Fatalf("bad version: %+v", v1)
	}

	// Reopen cold: the snapshot must verify and decode identically.
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if s2.Report().Recovered() {
		t.Fatalf("clean store reported recovery: %+v", s2.Report())
	}
	snap, v, err := s2.CurrentSnapshot()
	if err != nil {
		t.Fatalf("CurrentSnapshot: %v", err)
	}
	if v != v1 {
		t.Fatalf("version = %+v, want %+v", v, v1)
	}
	if snap.Templates[0].IsolatedLatency != 10 {
		t.Fatalf("decoded latency = %g", snap.Templates[0].IsolatedLatency)
	}
	if _, _, err := s2.CurrentPredictor(); err != nil {
		t.Fatalf("CurrentPredictor: %v", err)
	}
}

func TestPublishDedupsIdenticalContent(t *testing.T) {
	s, err := New(NewMemRepository())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	v1, err := s.Publish(testSnapshot(t, 0), "a")
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	v2, err := s.Publish(testSnapshot(t, 0), "b")
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	if v2 != v1 {
		t.Fatalf("identical content republished: %+v vs %+v", v2, v1)
	}
	if s.Len() != 1 {
		t.Fatalf("history length = %d, want 1", s.Len())
	}
}

func TestRollbackAndRepublish(t *testing.T) {
	s, err := New(NewMemRepository())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Rollback(); !errors.Is(err, ErrNoVersions) {
		t.Fatalf("empty Rollback err = %v, want ErrNoVersions", err)
	}
	v1, _ := s.Publish(testSnapshot(t, 0), "v1")
	v2, _ := s.Publish(testSnapshot(t, 1), "v2")
	back, err := s.Rollback()
	if err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	if back.Fingerprint != v1.Fingerprint {
		t.Fatalf("rolled back to %s, want %s", back.Fingerprint, v1.Fingerprint)
	}
	cur, _ := s.Current()
	if cur.Fingerprint != v1.Fingerprint {
		t.Fatalf("current = %s, want %s", cur.Fingerprint, v1.Fingerprint)
	}
	// Republishing the demoted content gets a fresh Seq, same blob.
	v3, err := s.Publish(testSnapshot(t, 1), "again")
	if err != nil {
		t.Fatalf("republish: %v", err)
	}
	if v3.Fingerprint != v2.Fingerprint || v3.Seq <= v2.Seq {
		t.Fatalf("republish = %+v, want fingerprint %s with new seq", v3, v2.Fingerprint)
	}
}

func TestCorruptCurrentFallsBackToPreviousVersion(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	v1, _ := s.Publish(testSnapshot(t, 0), "v1")
	v2, _ := s.Publish(testSnapshot(t, 1), "v2")

	// Flip one byte in the current blob: the checksum must catch it.
	path := filepath.Join(dir, snapshotName(v2.Fingerprint))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read blob: %v", err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatalf("corrupt blob: %v", err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after corruption: %v", err)
	}
	rep := s2.Report()
	if !rep.Recovered() || rep.FellBackTo != v1.Fingerprint {
		t.Fatalf("recovery report = %+v, want fallback to %s", rep, v1.Fingerprint)
	}
	if len(rep.CorruptVersions) != 1 || rep.CorruptVersions[0] != v2.Fingerprint {
		t.Fatalf("corrupt versions = %v", rep.CorruptVersions)
	}
	cur, ok := s2.Current()
	if !ok || cur.Fingerprint != v1.Fingerprint {
		t.Fatalf("current after fallback = %+v, want %s", cur, v1.Fingerprint)
	}
	if _, _, err := s2.CurrentSnapshot(); err != nil {
		t.Fatalf("fallback snapshot unreadable: %v", err)
	}
}

func TestCorruptBlobReportsCorruptClass(t *testing.T) {
	repo := NewMemRepository()
	s, err := New(repo)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	v1, _ := s.Publish(testSnapshot(t, 0), "v1")

	// Corrupt in place, then force a cold read via a fresh store over
	// the same repository (the warm cache would mask it).
	raw, _ := repo.Read(snapshotName(v1.Fingerprint))
	raw[10] ^= 0xFF
	repo.Put(snapshotName(v1.Fingerprint), raw)
	s2, err := New(repo)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	// All versions corrupt: store opens empty-handed.
	if _, ok := s2.Current(); ok {
		t.Fatal("fully corrupt store still reports a current version")
	}
	if _, _, err := s2.CurrentSnapshot(); !errors.Is(err, ErrNoVersions) {
		t.Fatalf("err = %v, want ErrNoVersions", err)
	}

	// Direct load of a corrupt blob is errors.Is-able as Corrupt.
	s3 := &Store{repo: repo, cache: map[string]*cacheEntry{}}
	s3.man = manifest{Version: manifestVersion, Current: v1.Fingerprint, History: []Version{v1}}
	if _, err := s3.Load(v1.Fingerprint); !errors.Is(err, resilience.ErrCorruptMeasurement) {
		t.Fatalf("Load err = %v, want resilience.ErrCorruptMeasurement", err)
	}
}

func TestCrashMidPublishRecoversPriorVersionByteIdentically(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	v1, _ := s.Publish(testSnapshot(t, 0), "v1")
	manifestBefore, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatalf("read manifest: %v", err)
	}
	blobBefore, err := os.ReadFile(filepath.Join(dir, snapshotName(v1.Fingerprint)))
	if err != nil {
		t.Fatalf("read blob: %v", err)
	}

	// Simulate kill -9 mid-WriteAtomic of the next version: a truncated
	// *.tmp exists, the manifest still references v1 only.
	raw, fp, _, err := encode(testSnapshot(t, 1))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	tmp := filepath.Join(dir, snapshotName(fp)+tmpSuffix)
	if err := os.WriteFile(tmp, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatalf("plant crash debris: %v", err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	rep := s2.Report()
	if len(rep.RemovedTemp) != 1 || !strings.HasSuffix(rep.RemovedTemp[0], tmpSuffix) {
		t.Fatalf("recovery report = %+v, want one swept tmp", rep)
	}
	if len(rep.CorruptVersions) != 0 || rep.FellBackTo != "" {
		t.Fatalf("crash debris misread as corruption: %+v", rep)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("tmp debris not swept: %v", err)
	}
	cur, ok := s2.Current()
	if !ok || cur != v1 {
		t.Fatalf("current after crash = %+v, want %+v", cur, v1)
	}
	manifestAfter, _ := os.ReadFile(filepath.Join(dir, manifestName))
	blobAfter, _ := os.ReadFile(filepath.Join(dir, snapshotName(v1.Fingerprint)))
	if !bytes.Equal(manifestBefore, manifestAfter) {
		t.Fatal("manifest changed across crash recovery")
	}
	if !bytes.Equal(blobBefore, blobAfter) {
		t.Fatal("prior version blob changed across crash recovery")
	}
}

func TestCrashAfterBlobBeforeManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	v1, _ := s.Publish(testSnapshot(t, 0), "v1")

	// Crash point two: the new blob fully renamed, manifest not yet
	// rewritten — the blob is unreferenced and the store serves v1.
	raw, fp, _, err := encode(testSnapshot(t, 1))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapshotName(fp)), raw, 0o644); err != nil {
		t.Fatalf("plant blob: %v", err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	cur, ok := s2.Current()
	if !ok || cur != v1 {
		t.Fatalf("current = %+v, want %+v", cur, v1)
	}
	if len(s2.Versions()) != 1 {
		t.Fatalf("versions = %v, want just v1", s2.Versions())
	}
}

func TestLoadUnknownVersion(t *testing.T) {
	s, err := New(NewMemRepository())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := s.Load("deadbeef"); !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("err = %v, want ErrUnknownVersion", err)
	}
}

func TestCacheServesWithoutRepository(t *testing.T) {
	repo := NewMemRepository()
	s, err := New(repo)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	v1, _ := s.Publish(testSnapshot(t, 0), "v1")
	// Vandalize the repository under the store: the warm cache tier must
	// keep serving the decoded snapshot regardless.
	repo.Put(snapshotName(v1.Fingerprint), []byte("garbage"))
	if _, err := s.Load(v1.Fingerprint); err != nil {
		t.Fatalf("warm load hit the repository: %v", err)
	}
}

func TestManifestUnreadableIsCorrupt(t *testing.T) {
	repo := NewMemRepository()
	repo.Put(manifestName, []byte("{not json"))
	if _, err := New(repo); !errors.Is(err, resilience.ErrCorruptMeasurement) {
		t.Fatalf("err = %v, want resilience.ErrCorruptMeasurement", err)
	}
}

// TestManifestFingerprintMustNameABlob: a manifest whose current version
// is not a fingerprint is corrupt before any blob is read. Here it walks
// out of the repository directory to a well-formed snapshot whose
// checksum the manifest carries, which the store must not serve.
func TestManifestFingerprintMustNameABlob(t *testing.T) {
	root := t.TempDir()
	raw, _, sum, err := encode(testSnapshot(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "outside.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	const bad = "/../../outside"
	man, err := json.Marshal(manifest{Version: manifestVersion, Current: bad, History: []Version{{Seq: 1, Fingerprint: bad, Checksum: sum}}})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "store")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), man, 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, _, err := s.CurrentSnapshot(); !errors.Is(err, ErrNoVersions) {
		t.Fatalf("CurrentSnapshot err = %v, want ErrNoVersions: the only version is not a fingerprint", err)
	}
	if rep := s.Report(); len(rep.CorruptVersions) != 1 || rep.CorruptVersions[0] != bad {
		t.Fatalf("corrupt versions = %q, want [%q]", rep.CorruptVersions, bad)
	}

	// A direct load is refused as corrupt without touching the repository.
	repo := &readLog{Repository: NewMemRepository()}
	s2 := &Store{repo: repo, cache: map[string]*cacheEntry{}, man: manifest{Version: manifestVersion, Current: bad}}
	if _, err := s2.Load(bad); !errors.Is(err, resilience.ErrCorruptMeasurement) {
		t.Fatalf("Load err = %v, want resilience.ErrCorruptMeasurement", err)
	}
	if len(repo.reads) != 0 {
		t.Fatalf("Load read %q from the repository", repo.reads)
	}
}

// readLog records the names a store reads.
type readLog struct {
	Repository
	reads []string
}

func (r *readLog) Read(name string) ([]byte, error) {
	r.reads = append(r.reads, name)
	return r.Repository.Read(name)
}
