package server

import (
	"bufio"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"disasso/internal/core"
	"disasso/internal/query"
	"disasso/internal/snapfile"
)

// artifactPath is where a dataset's snapshot file lives. Names are validated
// against nameRe before any handler runs, so they are safe path components.
func (s *Server) artifactPath(name string) string {
	return filepath.Join(s.opts.DataDir, name+".snap")
}

// persist writes the snapshot's file under DataDir, atomically: the bytes go
// to a fresh temp file in the same directory, are fsynced, and only then
// renamed over the final name, so a crash at any point leaves either the old
// artifact or the new one — never a torn file under the servable name (a
// leftover *.tmp is swept by Recover). A no-op without a DataDir.
func (s *Server) persist(sn *snapshot) error {
	if s.opts.DataDir == "" {
		return nil
	}
	original, err := sn.original()
	if err != nil {
		return err
	}
	c := snapfile.Contents{
		Meta: snapfile.Meta{
			Name:         sn.info.Name,
			K:            sn.info.K,
			M:            sn.info.M,
			Records:      sn.info.Records,
			Terms:        sn.info.Terms,
			Clusters:     sn.info.Clusters,
			Streamed:     sn.info.Streamed,
			Version:      sn.info.Version,
			ShardRecords: sn.info.ShardRecords,
			Opts:         sn.opts,
			Summary:      sn.summary,
		},
		Forest:   sn.anon,
		Index:    sn.est.Index(),
		Singles:  sn.est.Singles(),
		Original: original,
	}

	f, err := os.CreateTemp(s.opts.DataDir, sn.info.Name+"-*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	bw := bufio.NewWriter(f)
	if err := c.Write(bw); err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, s.artifactPath(sn.info.Name))
	}
	if err != nil {
		_ = os.Remove(tmp) // best-effort cleanup; Recover sweeps survivors
		return err
	}
	// The artifact itself is durable (fsynced before the rename); a failed
	// directory sync only risks the rename after a crash, so it is logged
	// rather than failing a publish whose data is safely on disk.
	if err := syncDir(s.opts.DataDir); err != nil {
		s.logf("disassod: persisting %q: %v", sn.info.Name, err)
	}
	return nil
}

// removeArtifact deletes a dataset's snapshot file; a file that was never
// persisted (or a server without a DataDir) is not an error.
func (s *Server) removeArtifact(name string) error {
	if s.opts.DataDir == "" {
		return nil
	}
	if err := os.Remove(s.artifactPath(name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	if err := syncDir(s.opts.DataDir); err != nil {
		s.logf("disassod: deleting snapshot file of %q: %v", name, err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed (or just-removed) entry is
// durable. A filesystem REFUSING directory fsync (EINVAL/ENOTSUP — common on
// network and FUSE mounts, which offer nothing stronger) is not an error:
// the rename already happened and there is no better call to make. Anything
// else — an I/O error actually failing the sync — is returned so callers
// log it instead of silently losing the durability guarantee.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("opening %s for directory sync: %w", dir, err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr // read-only descriptor; a Close failure is still anomalous
	}
	if err != nil && !ignorableSyncError(err) {
		return fmt.Errorf("syncing directory %s: %w", dir, err)
	}
	return nil
}

// SkippedFile is one file Recover found under DataDir but did not load.
type SkippedFile struct {
	File   string `json:"file"`
	Reason string `json:"reason"`
}

// RecoveryReport says what a registry recovery scan did: which datasets are
// serving again and which files were passed over (with why), so an operator
// sees corruption or leftovers instead of silently missing data.
type RecoveryReport struct {
	Loaded  []string      `json:"loaded"`
	Skipped []SkippedFile `json:"skipped"`
}

// Recover scans DataDir and registers every valid snapshot file, in O(files)
// with zero anonymization or index-construction work: each file is opened
// (memory-mapped where possible), CRC-verified, and served as-is. Damaged
// files and leftover temp files are skipped and reported, never fatal — a
// single bad artifact must not keep the other datasets down. Recovery of a
// name already registered in this server is skipped too, so Recover is safe
// to call at any time, not only on an empty registry.
func (s *Server) Recover() (RecoveryReport, error) {
	var rep RecoveryReport
	if s.opts.DataDir == "" {
		return rep, nil
	}
	entries, err := os.ReadDir(s.opts.DataDir)
	if err != nil {
		return rep, err
	}
	for _, e := range entries { // ReadDir sorts by name: deterministic order
		if e.IsDir() {
			continue
		}
		fname := e.Name()
		path := filepath.Join(s.opts.DataDir, fname)
		if strings.HasSuffix(fname, ".tmp") {
			// An interrupted persist: the rename never happened, so the
			// servable artifact (if any) is intact and this is garbage.
			reason := "interrupted write; temp file removed"
			if err := os.Remove(path); err != nil {
				reason = fmt.Sprintf("interrupted write; removing failed: %v", err)
			}
			rep.Skipped = append(rep.Skipped, SkippedFile{File: fname, Reason: reason})
			continue
		}
		name, ok := strings.CutSuffix(fname, ".snap")
		if !ok {
			rep.Skipped = append(rep.Skipped, SkippedFile{File: fname, Reason: "not a snapshot file"})
			continue
		}
		if !nameRe.MatchString(name) {
			rep.Skipped = append(rep.Skipped, SkippedFile{File: fname, Reason: "invalid dataset name"})
			continue
		}
		f, err := snapfile.Open(path)
		if err != nil {
			rep.Skipped = append(rep.Skipped, SkippedFile{File: fname, Reason: err.Error()})
			continue
		}
		if got := f.Meta().Name; got != name {
			rep.Skipped = append(rep.Skipped, SkippedFile{File: fname, Reason: fmt.Sprintf("metadata names %q", got)})
			_ = f.Close() // no views escaped; safe to unmap immediately
			continue
		}
		if !f.HasOriginal() {
			// Only a streamed publish of an older release wrote no
			// originals, which deltas and metrics need.
			rep.Skipped = append(rep.Skipped, SkippedFile{File: fname, Reason: "no original records (a streamed publish of an older release); republish the dataset"})
			_ = f.Close()
			continue
		}
		sn := s.snapshotFromFile(f)
		l := s.lockName(name)
		_, exists := s.lookup(name)
		if !exists {
			s.mu.Lock()
			s.snapshots[name] = sn
			s.mu.Unlock()
		}
		s.unlockName(name, l)
		if exists {
			rep.Skipped = append(rep.Skipped, SkippedFile{File: fname, Reason: "dataset already registered"})
			continue
		}
		rep.Loaded = append(rep.Loaded, name)
	}
	return rep, nil
}

// snapshotFromFile assembles a cold serving snapshot over an opened snapshot
// file that holds an original section: the estimator's singleton table and
// the index slabs come straight from the file (zero-copy when mapped), the
// per-cluster chunk postings and the original records stay lazy, and no
// anonymization state is carried — the first delta against the name
// rehydrates it (see rehydrate).
func (s *Server) snapshotFromFile(f *snapfile.Snapshot) *snapshot {
	meta := f.Meta()
	return &snapshot{
		cache: newSupportCache(),
		audit: newAuditCell(),
		info: DatasetInfo{
			Name: meta.Name, K: meta.K, M: meta.M,
			Records:      meta.Records,
			Terms:        meta.Terms,
			Clusters:     meta.Clusters,
			Streamed:     meta.Streamed,
			Version:      meta.Version,
			ShardRecords: meta.ShardRecords,
		},
		anon:     f.Forest(),
		est:      query.NewRecoveredEstimator(f.Forest(), f.Index(), f.Singles()),
		summary:  meta.Summary,
		opts:     meta.Opts,
		original: f.Original,
		cold:     true,
		mapped:   f.Mapped(),
	}
}

// rehydrate rebuilds the delta-republish state of a recovered snapshot by
// re-running the stateful pipeline over the persisted original records with
// the persisted options. The republish determinism guarantee (Apply ≡
// from-scratch anonymize, byte for byte) is what makes this sound: the
// rebuilt state describes exactly the publication the snapshot file holds.
func (s *Server) rehydrate(sn *snapshot) (*core.RepubState, error) {
	d, err := sn.original()
	if err != nil {
		return nil, err
	}
	_, st, err := core.AnonymizeWithState(d, sn.opts)
	return st, err
}
