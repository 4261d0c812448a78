// Fixture for the walordering analyzer, type-checked as
// planar/internal/service (in scope). It imports the real core and
// replog packages so mutator and journal calls resolve to the exact
// methods the analyzer keys on.
package service

import (
	"planar/internal/core"
	"planar/internal/replog"
	"planar/internal/wal"
)

func unjournaled(m *core.Multi, v []float64) error {
	_, err := m.Append(v) // want `mutates the store via m.Append without a sequencer Commit`
	return err
}

func unjournaledUpdate(m *core.Multi, id uint32, v []float64) error {
	return m.Update(id, v) // want `mutates the store via m.Update without a sequencer Commit`
}

func journaled(m *core.Multi, s *replog.Sequencer, v []float64) error {
	id, err := m.Append(v)
	if err != nil {
		return err
	}
	_, err = s.Commit(wal.OpAppend, id, v, func(uint64) error { return nil })
	return err
}

func journaledAt(m *core.Multi, s *replog.Sequencer, rec wal.Record) error {
	if err := m.Update(rec.ID, rec.Vec); err != nil {
		return err
	}
	return s.CommitAt(rec.LSN, rec.Op, rec.ID, rec.Vec, func(uint64) error { return nil })
}

// helperAnnotated runs under a commit its caller owns.
//
//planar:journaled
func helperAnnotated(m *core.Multi, v []float64) error {
	_, err := m.Append(v)
	return err
}

func helperUnjournaled(m *core.Multi, v []float64) error {
	return helperAnnotated(m, v) // want `mutates the store via helperAnnotated without a sequencer Commit`
}

func helperJournaled(m *core.Multi, s *replog.Sequencer, v []float64) error {
	if err := helperAnnotated(m, v); err != nil {
		return err
	}
	_, err := s.Commit(wal.OpAppend, 0, v, func(uint64) error { return nil })
	return err
}

func replayExempt(path string, m *core.Multi) (int, error) {
	return wal.Replay(path, func(r wal.Record) error {
		_, err := m.Append(r.Vec) // re-applying already-journaled records
		return err
	})
}

func closurePaired(m *core.Multi, s *replog.Sequencer, v []float64) error {
	apply := func() error {
		_, err := m.Append(v)
		return err
	}
	if err := apply(); err != nil {
		return err
	}
	_, err := s.Commit(wal.OpAppend, 0, v, func(uint64) error { return nil })
	return err
}

func suppressed(m *core.Multi, v []float64) {
	_, _ = m.Append(v) //nolint:walordering // fixture: bulk load before the log exists
}
