package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"

	"contender/internal/resilience"
)

// FuzzStoreOpen opens a store over a memory repository that holds a
// mutated manifest and one mutated snapshot blob. The blob is stored
// under its own fingerprint, and "@FP@" and "@SUM@" in the manifest
// become that fingerprint and the blob's checksum, so a mutated blob
// stays addressable and reaches the decoder and validation. Opening
// must never panic: each input ends in an error of the resilience
// taxonomy, in an empty store, or in a current predictor that primes
// and prices.
func FuzzStoreOpen(f *testing.F) {
	blob, _, _, err := encode(testSnapshot(f, 0))
	if err != nil {
		f.Fatal(err)
	}
	for _, man := range []string{
		`{"version":1,"current":"@FP@","history":[{"seq":1,"fingerprint":"@FP@","checksum":"@SUM@","note":"v1"}]}`,
		`{"version":1,"current":"@FP@"}`,
		`{"version":1,"current":"00000000000000000000000000000000","history":[{"seq":1,"fingerprint":"@FP@","checksum":"@SUM@"},{"seq":2,"fingerprint":"00000000000000000000000000000000","checksum":"@SUM@"}]}`,
		`{"version":1,"current":"/../../outside","history":[{"seq":1,"fingerprint":"/../../outside","checksum":"@SUM@"}]}`,
		`{"version":1}`,
		`{"version":2}`,
		`{not json`,
	} {
		f.Add([]byte(man), blob)
	}
	f.Add([]byte(`{"version":1,"current":"@FP@"}`), []byte(`{"version":1,"templates":[{"id":1,"isolated_latency":1,"scans":["t"],"unscanned":["u"],"spoilers":[{"mpl":2,"latency":2}]}],"scan_times":{"t":1},"models":[{"mpl":2,"template":1,"mu":1,"b":0}]}`))
	f.Fuzz(func(t *testing.T, man, blob []byte) {
		sum := sha256.Sum256(blob)
		checksum := hex.EncodeToString(sum[:])
		fp := checksum[:fingerprintLen]
		man = bytes.ReplaceAll(man, []byte("@FP@"), []byte(fp))
		man = bytes.ReplaceAll(man, []byte("@SUM@"), []byte(checksum))
		repo := NewMemRepository()
		repo.Put(manifestName, man)
		repo.Put(snapshotName(fp), blob)

		s, err := New(repo)
		if err != nil {
			requireClassified(t, "New", err)
			return
		}
		p, _, err := s.CurrentPredictor()
		if errors.Is(err, ErrNoVersions) {
			return
		}
		if err != nil {
			requireClassified(t, "CurrentPredictor", err)
			return
		}
		p.Prime()
		for _, id := range p.Know.IDs() {
			_, _ = p.PredictKnown(id, []int{id})
		}
	})
}

// requireClassified fails unless err belongs to the resilience taxonomy.
func requireClassified(t *testing.T, op string, err error) {
	t.Helper()
	if !errors.Is(err, resilience.ErrCorruptMeasurement) && !errors.Is(err, resilience.ErrPermanent) && !errors.Is(err, resilience.ErrTransient) {
		t.Fatalf("%s: unclassified error %v", op, err)
	}
}
