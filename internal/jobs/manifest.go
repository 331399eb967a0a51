package jobs

import (
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Job states, as persisted in manifests and reported by the API.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// SortParams is the per-job engine geometry, chosen at submission.
type SortParams struct {
	Disks     int `json:"disks"`
	BlockSize int `json:"block_size"`
	Memory    int `json:"memory"`
	Buckets   int `json:"buckets,omitempty"`
	// SortEngine picks the sort engine for the job: "auto" consults the
	// cost-model planner, "" means balancesort.
	SortEngine string `json:"sort_engine,omitempty"`
	// Cluster runs the job on the server's configured worker cluster
	// (Options.Cluster) instead of the local file-backed engine. The
	// coordinator journal lives in the job's scratch directory, so the job
	// survives a server crash-restart via the cluster resume path.
	Cluster bool `json:"cluster,omitempty"`
}

// Manifest is the durable record of one job — everything a restarted
// server needs to carry the job forward (or keep serving its output).
// One checksummed manifest.json lives in each job's directory; the pass
// journal inside scratch/ holds the sort's own resumable state.
type Manifest struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	State  string `json:"state"`
	Weight int    `json:"weight"`
	Seq    int64  `json:"seq"` // admission order, preserved across restarts

	// LocalInput is the server-local input path for path-submitted jobs;
	// empty means the input was uploaded into the job directory.
	LocalInput string `json:"local_input,omitempty"`
	InputBytes int64  `json:"input_bytes"`
	Records    int    `json:"records"`

	// MemBytes, DiskBytes, and RetainBytes are the admission reservations:
	// memory held while running, disk held from admission, and the disk
	// still held after the job completes (the sorted output).
	MemBytes    int64 `json:"mem_bytes"`
	DiskBytes   int64 `json:"disk_bytes"`
	RetainBytes int64 `json:"retain_bytes"`

	Params SortParams `json:"params"`

	SubmittedUnix int64 `json:"submitted_unix"`
	StartedUnix   int64 `json:"started_unix,omitempty"`
	FinishedUnix  int64 `json:"finished_unix,omitempty"`

	Error     string `json:"error,omitempty"`
	ErrorCode string `json:"error_code,omitempty"`

	// Result summary for done jobs.
	IOs        int64 `json:"ios,omitempty"`
	SortPasses int   `json:"sort_passes,omitempty"`
	// Resumes counts crash-restart resumptions of this job.
	Resumes int `json:"resumes,omitempty"`
}

const manifestName = "manifest.json"

// manifestEnvelope wraps the manifest payload with a CRC32C over its raw
// bytes, so a torn or bit-flipped manifest is detected on recovery rather
// than trusted.
type manifestEnvelope struct {
	CRC      uint32          `json:"crc"`
	Manifest json.RawMessage `json:"manifest"`
}

var manifestCRC = crc32.MakeTable(crc32.Castagnoli)

// WriteManifest durably replaces dir's manifest: marshal, checksum, write
// to a temp file, fsync, rename. A crash leaves either the old manifest
// or the new one, never a torn mix.
func WriteManifest(dir string, m *Manifest) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return err
	}
	env, err := json.Marshal(manifestEnvelope{CRC: crc32.Checksum(payload, manifestCRC), Manifest: payload})
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(env, '\n')); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, manifestName))
}

// ReadManifest loads and verifies dir's manifest. A missing file returns
// os.ErrNotExist; a checksum mismatch is an explicit error — recovery
// quarantines such jobs instead of acting on garbage.
func ReadManifest(dir string) (*Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	var env manifestEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, fmt.Errorf("jobs: manifest in %s unreadable: %w", dir, err)
	}
	if got := crc32.Checksum(env.Manifest, manifestCRC); got != env.CRC {
		return nil, fmt.Errorf("jobs: manifest in %s corrupt: checksum %08x, payload hashes to %08x", dir, env.CRC, got)
	}
	var m Manifest
	if err := json.Unmarshal(env.Manifest, &m); err != nil {
		return nil, fmt.Errorf("jobs: manifest in %s corrupt: %w", dir, err)
	}
	return &m, nil
}
