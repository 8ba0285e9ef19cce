package bench

import (
	"fmt"
	"os"

	"repro/internal/faults"
	"repro/internal/repo"
)

// JournalReport describes one shard journal a merge consumed.
type JournalReport struct {
	// Path is the journal file.
	Path string
	// Shard is the journal's recorded shard assignment ("index/count",
	// empty for a whole-grid journal).
	Shard string
	// Cells counts the intact checkpointed records the journal held.
	Cells int
	// Damaged counts CRC-skipped checkpoint lines — interior damage a
	// v2 reader detects and survives, but which a merge must surface:
	// the damaged cells' records exist only if another journal covers
	// them.
	Damaged int
}

// MergeResult is the outcome of fusing shard journals back into one
// grid's records.
type MergeResult struct {
	// Records holds every grid cell in canonical enumeration order —
	// the exact order an unsharded RunGrid returns, which is what makes
	// every export built from a merge byte-identical to the unsharded
	// artifact. Cells no journal covered carry synthesized
	// faults.ShardFailure records (see Missing).
	Records []Record
	// Missing lists the cells no journal covered, in canonical order.
	// Their Records entries are shard-failure placeholders; callers
	// decide whether that is a degraded-but-reportable sweep (a shard
	// exhausted its restarts) or an error (a journal is simply absent).
	Missing []CellRef
	// Damaged totals the CRC-skipped lines across all journals.
	Damaged int
	// PerJournal reports each input journal in argument order.
	PerJournal []JournalReport
	// RepoHits counts cells no journal covered that the evaluation
	// repository supplied instead (MergeJournalsRepo only).
	RepoHits int
	// RepoDamaged counts repository cells that failed verification
	// while filling journal holes (tolerated under AllowDamage; the
	// cells stay missing).
	RepoDamaged int
}

// loadJournal reads a journal without opening it for appends: header,
// intact records, and damage count. Torn trailing lines are ignored
// exactly as resume would truncate them.
func loadJournal(path string) (*journalState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: reading journal: %w", err)
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("bench: journal %s is empty", path)
	}
	st, err := parseJournal(data)
	if err != nil {
		return nil, fmt.Errorf("bench: journal %s: %w", path, err)
	}
	return st, nil
}

// MergeJournals fuses any set of shard journals for the fingerprinted
// grid into the canonical record sequence. The result is independent of
// shard count, journal argument order, completion order, and overlap:
// records are keyed by cell identity and emitted in enumeration order
// (refs), so any combination of journals that together cover the grid
// reproduces the unsharded run's records — and therefore its exports —
// byte for byte.
//
// Every journal must carry the grid's fingerprint; shard assignments
// may differ (journals from 2-shard and 4-shard runs merge fine).
// Overlapping cells must agree exactly — two journals disagreeing about
// the same cell means a determinism bug or a foreign journal, and is an
// error, never a silent pick. Cells no journal covers are reported in
// Missing and filled with shard-failure placeholder records.
func MergeJournals(paths []string, fingerprint string, refs []CellRef) (*MergeResult, error) {
	return MergeJournalsRepo(paths, fingerprint, refs, nil)
}

// MergeJournalsRepo is MergeJournals with an evaluation repository as a
// second record source: cells no journal covers consult the store
// before degrading to shard-failure placeholders. A shard whose journal
// was lost entirely can thus still merge cleanly as long as its cells
// were ever stored — the repository is the durable tier, journals the
// incremental one. Repository records participate in the same
// disagreement check as journal records would (they must match nothing,
// since only journal holes consult the store), and damage follows the
// repository's policy: counted under AllowDamage, an error otherwise.
func MergeJournalsRepo(paths []string, fingerprint string, refs []CellRef, rp *repo.Repository) (*MergeResult, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("bench: merge needs at least one journal")
	}
	res := &MergeResult{}
	byID := make(map[string]Record)
	owner := make(map[string]string) // cellID -> journal path that first supplied it
	for _, path := range paths {
		st, err := loadJournal(path)
		if err != nil {
			return nil, err
		}
		if st.header.Fingerprint != fingerprint {
			return nil, fmt.Errorf("bench: journal %s fingerprint %s does not match grid %s — refusing to merge a different configuration", path, st.header.Fingerprint, fingerprint)
		}
		res.PerJournal = append(res.PerJournal, JournalReport{
			Path:    path,
			Shard:   st.header.Shard,
			Cells:   len(st.Records),
			Damaged: st.Damaged,
		})
		res.Damaged += st.Damaged
		for _, rec := range st.Records {
			id := cellID(rec.System, rec.Dataset, rec.Budget, rec.Seed)
			if prev, ok := byID[id]; ok {
				if prev != rec {
					return nil, fmt.Errorf("bench: journals %s and %s disagree about cell %s — determinism violation, refusing to merge", owner[id], path, id)
				}
				continue
			}
			byID[id] = rec
			owner[id] = path
		}
	}

	seen := 0
	for _, ref := range refs {
		if rec, ok := byID[ref.ID()]; ok {
			res.Records = append(res.Records, rec)
			seen++
			continue
		}
		if rp != nil {
			rec, hit, damaged, err := repoLookup(rp, fingerprint, ref.ID())
			if err != nil {
				return nil, err
			}
			if damaged {
				res.RepoDamaged++
			}
			if hit {
				res.RepoHits++
				res.Records = append(res.Records, rec)
				continue
			}
		}
		res.Missing = append(res.Missing, ref)
		res.Records = append(res.Records, ref.failureRecord(faults.ShardFailure))
	}
	if extra := len(byID) - seen; extra > 0 {
		return nil, fmt.Errorf("bench: journals hold %d record(s) for cells outside the grid enumeration — fingerprint collision or enumeration drift", extra)
	}
	return res, nil
}

// VerifyMissingOwnedBy checks that every missing cell belongs to one of
// the given failed shards of an N-shard run. The coordinator uses this
// to distinguish graceful degradation (cells of a shard that exhausted
// its restarts are reported as shard failures) from a hole in the
// merge (a journal that claims completion but lacks cells — a bug
// worth refusing to paper over).
func (m *MergeResult) VerifyMissingOwnedBy(fingerprint string, failed []ShardSpec) error {
	for _, ref := range m.Missing {
		owned := false
		for _, s := range failed {
			if s.Owns(fingerprint, ref.ID()) {
				owned = true
				break
			}
		}
		if !owned {
			return fmt.Errorf("bench: cell %s is missing from the merge but no failed shard owns it — a completed shard journal is incomplete", ref.ID())
		}
	}
	return nil
}
