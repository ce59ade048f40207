package partition

// The element-handle calls below exist for one caller: the partition rung
// of the bench/ ledger, whose code is frozen together with its reference
// numbers. Each is a one-line adapter over a half that Put or Get is built
// from, so the rung still prices the shipping code path. Nothing else may
// call them. ROADMAP item 4 B moves the rung onto Put and Get and deletes
// this file.

// Insert is Put's allocate-and-link half for a value that never expires:
// the element is linked, and its Value is the caller's to fill before
// MarkReady. It returns nil when no room can be made.
func (s *Store) Insert(k Key, size int) Element { return s.insert(k, size, 0, 0) }

// MarkReady is Put's publish half: it streams e's Set to the change sink.
func (s *Store) MarkReady(e Element) { s.publish(e) }

// Lookup is Get's find half. The element it returns is valid until the
// next call on the store.
func (s *Store) Lookup(k Key) Element { return s.lookup(k) }

// Decref does nothing: no element outlives the next call on its store.
func (s *Store) Decref(Element) {}
