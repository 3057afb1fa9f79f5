package parajoin

// SnapshotEpoch exposes the data epoch of the planning snapshot to the
// external tests (the ones that must import the serving layer).
func (db *DB) SnapshotEpoch() int64 { return db.snap.Load().epoch }
