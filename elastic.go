package parajoin

import (
	"fmt"
	"sort"

	"parajoin/internal/cluster"
	"parajoin/internal/partstore"
	"parajoin/internal/rel"
)

// PersistTo hash-partitions every loaded relation into the durable
// partition catalog (slots <= 0 uses the store default), along with the
// string dictionary, so the database can be rebuilt from disk by
// OpenFromStore — after a restart, or on a different worker count after an
// elastic resize. Re-persisting an already-saved relation replaces it
// wholesale (SaveRelation's contract); the catalog version is untouched,
// since partition *placement* hasn't changed, only content.
func (db *DB) PersistTo(store *partstore.Store, slots int) error {
	rels := db.snap.Load().rels
	for _, name := range sortedNames(rels) {
		if err := partstore.SaveRelation(store, rels[name], slots); err != nil {
			return err
		}
	}
	// Dict codes are positions: exporting names in code order lets
	// OpenFromStore re-assign identical codes by feeding them back in order.
	n := db.dict.Len()
	strs := make([]string, n)
	for i := 0; i < n; i++ {
		strs[i] = db.dict.Name(int64(i))
	}
	return store.SetStrings(strs)
}

// OpenFromStore rebuilds a database from a partition catalog for the given
// member set: one engine worker per member, each loaded with exactly the
// partitions rendezvous hashing assigns that member's name — the same
// assignment the elastic coordinator places on disk, so worker i's fragment
// matches member i's local store. Because a tuple's slot is a pure function
// of its values and the string dictionary is replayed in code order, the
// same catalog opened for any member set yields the same answers (HyperCube
// results are partitioning-independent); only the share grid changes with
// the worker count.
func OpenFromStore(store *partstore.Store, members []string, opts ...Option) (*DB, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("parajoin: cannot open a store for zero members")
	}
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)

	db := Open(len(sorted), opts...)
	for _, s := range store.Strings() {
		db.dict.Code(s)
	}
	for _, e := range store.Relations() {
		full, err := store.LoadRelation(e.Name)
		if err != nil {
			db.Close()
			return nil, err
		}
		frags := make([]*rel.Relation, len(sorted))
		for i, m := range sorted {
			slots := cluster.SlotsFor(sorted, e.Name, e.Slots, m)
			if len(slots) == 0 {
				// Rendezvous can leave a member empty on small grids.
				frags[i] = rel.New(e.Name, e.Columns...)
				continue
			}
			frag, err := store.LoadSlots(e.Name, slots)
			if err != nil {
				db.Close()
				return nil, err
			}
			frags[i] = frag
		}
		db.install(full, frags)
	}
	return db, nil
}
