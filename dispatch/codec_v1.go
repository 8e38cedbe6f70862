package dispatch

import (
	"encoding/json"
	"fmt"

	"repro/internal/sim"
)

// Read-only decoder for version-1 logs, whose record bodies and
// snapshots were JSON. Nothing writes this format any more: a restored
// version-1 log continues in version 2 (records name their version by
// their first byte, so the mix replays in one pass), and its next
// snapshot is a version-2 one.
//
// REMOVAL: this file is kept for one release so a log written by the
// last version-1 build (commit 5311ab3) still restores. Delete it in
// the release after the one that introduced durVersion 2, together with
// walRecord.Legacy, snapPayload.Legacy, Service.digestAnchored, the json
// tags on initRecord and configFingerprint, testdata/wal_v1 and
// v1compat_test.go; decodeRecord and decodeSnapshot then refuse a
// version-1 first byte as an unknown tag.

const durVersionV1 = 1

// recordV1 is the JSON body that followed a version-1 record's kind byte.
type recordV1 struct {
	Task   *Task   `json:"task,omitempty"`   // recSubmit
	Driver *Driver `json:"driver,omitempty"` // recAddDriver
	ID     int     `json:"id,omitempty"`     // recCancel (task), recRetire (driver)
	At     float64 `json:"at,omitempty"`     // recCancel, recRetire, recAdvance
}

// snapshotV1 is a version-1 snapshot file's body. It carried the fleet
// three times over: in the copied genesis, in the stream state, and as
// the ID columns.
type snapshotV1 struct {
	Version   int                `json:"version"`
	Init      initRecord         `json:"init"`
	State     *sim.StreamState   `json:"state"`
	DriverIDs []int              `json:"driver_ids"`
	Retired   []int              `json:"retired,omitempty"`
	TaskIDs   []int              `json:"task_ids,omitempty"`
	Decided   map[int]Assignment `json:"decided,omitempty"`
	Shed      int64              `json:"shed,omitempty"`
}

func checkVersionV1(v int) error {
	if v != durVersionV1 {
		return fmt.Errorf("%w: version %d in a version-%d payload", errWireVersion, v, durVersionV1)
	}
	return nil
}

// decodeRecordV1 decodes a record whose first byte is a bare kind.
func decodeRecordV1(data []byte) (walRecord, error) {
	rec := walRecord{Kind: data[0], Legacy: true}
	switch rec.Kind {
	case recInit:
		rec.Init = &initRecord{}
		if err := json.Unmarshal(data[1:], rec.Init); err != nil {
			return rec, err
		}
		return rec, checkVersionV1(rec.Init.Version)
	case recFinish:
		return rec, nil
	case recSubmit, recCancel, recAddDriver, recRetire, recAdvance:
	default:
		return rec, fmt.Errorf("%w %d", errWireTag, data[0])
	}
	var body recordV1
	if err := json.Unmarshal(data[1:], &body); err != nil {
		return rec, fmt.Errorf("decoding body: %w", err)
	}
	rec.ID, rec.At = body.ID, body.At
	switch {
	case rec.Kind == recSubmit && body.Task == nil:
		return rec, fmt.Errorf("submit record carries no task")
	case rec.Kind == recSubmit:
		rec.Task = *body.Task
	case rec.Kind == recAddDriver && body.Driver == nil:
		return rec, fmt.Errorf("join record carries no driver")
	case rec.Kind == recAddDriver:
		rec.Driver = *body.Driver
	}
	return rec, nil
}

// decodeSnapshotV1 decodes a JSON snapshot into the version-2 shape.
// Its ID columns must agree with the stream state, which is where
// version 2 reads them from.
func decodeSnapshotV1(data []byte) (*snapPayload, error) {
	var v1 snapshotV1
	if err := json.Unmarshal(data, &v1); err != nil {
		return nil, err
	}
	if err := checkVersionV1(v1.Version); err != nil {
		return nil, err
	}
	snap := &snapPayload{
		Version:  v1.Version,
		Legacy:   true,
		SpeedKmh: v1.Init.Market.SpeedKmh,
		GasPerKm: v1.Init.Market.GasPerKm,
		Config:   v1.Init.Config,
		State:    v1.State,
		Retired:  v1.Retired,
		Decided:  v1.Decided,
		Shed:     v1.Shed,
	}
	if st := v1.State; st != nil {
		if len(v1.DriverIDs) != len(st.Drivers) || len(v1.TaskIDs) != len(st.Tasks) {
			return nil, fmt.Errorf("%w: %d driver and %d task ids for a state of %d and %d",
				errWireValue, len(v1.DriverIDs), len(v1.TaskIDs), len(st.Drivers), len(st.Tasks))
		}
		for i, id := range v1.DriverIDs {
			if st.Drivers[i].ID != id {
				return nil, fmt.Errorf("%w: driver %d is %d in the id column, %d in the state", errWireValue, i, id, st.Drivers[i].ID)
			}
		}
		for i, id := range v1.TaskIDs {
			if st.Tasks[i].ID != id {
				return nil, fmt.Errorf("%w: task %d is %d in the id column, %d in the state", errWireValue, i, id, st.Tasks[i].ID)
			}
		}
	}
	return snap, nil
}
