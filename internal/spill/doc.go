// Package spill is parajoin's bounded-memory escape hatch: when an
// operator's materialized state crosses its memory reservation, the
// in-memory run is sealed as a compact binary segment appended to the
// run's one spill file, and the operator continues against a budget that
// just got that much room back. The paper's workers sit on Postgres
// instances that survive inputs larger than RAM; this package gives the
// in-process engine the same property — queries that used to abort with
// an out-of-memory error degrade to disk speed instead.
//
// The pieces:
//
//   - Accountant: per-run reserve/release accounting of materialized
//     tuples, shared by every operator of a run, with per-worker peaks
//     and a hard byte cap on spilled data. All methods are lock-free
//     atomics, so concurrent charges — including the sub-joins of one
//     worker's parallel Tributary join — never deadlock or contend on a
//     mutex. A reservation never over-commits: one that does not fit is
//     refused without ever being stored, so it cannot make a concurrent
//     one fail that fits.
//   - Segment: the on-disk run format (PJSPILL2) — a 16-byte header
//     (magic, arity), then colbatch batches of up to 4 096 rows.
//     AppendSegment encodes rows (partstore's partitions, a Buffer's
//     sealed runs); a Sorter's seal writes the same bytes from its
//     packed words, column by column. A SegmentReader reads a segment
//     back from an io.SectionReader, one positioned read per batch, and
//     is a Stream.
//   - Sorter: an external merge sort. AddBatch copies a rel.Batch's rows
//     into an arena the sorter owns, reserving the budget a stretch of
//     rows at a time yet with exactly the seals, peaks and errors of
//     adding the rows one by one (Add is the one-row form). A run is
//     sorted by packing rows into uint64 keys and radix-sorting them when
//     they fit 64 bits, by comparison when they do not. A sealed run stays packed from seal to trie: its
//     sorted words are unpacked column-major straight into the colbatch
//     encoder's columns, and at the finish each run's batches are decoded
//     into one reused arena, packed under the sorter-wide layout, and
//     merged by a loser tree that compares words. The merge yields the
//     exact sequence an in-memory sort of the whole input would.
//     FinishPacked hands that sequence over as packed rows
//     (rel.KeyPacker: one word per row when the columns fit 64 bits, a
//     word per column otherwise) — for an in-memory run, the radix
//     sort's own keys — which are the Tributary trie's backing array;
//     Finish is FinishPacked with the rows unpacked into a Stream.
//   - Buffer: the unsorted cousin on the same owned arena, preserving
//     append order — used for per-sub-range join-output
//     materialization. Its Finish chains its segments with Concat, which
//     also chains per-shard buffers back into one ordered stream.
//   - Stream: what a Finish returns, a batch (rel.Batch) at a time. A
//     batch Next returns is its caller's and may hold more rows than the
//     engine's batch size: a Buffer's arena chunk (up to 4 096 values), a
//     segment's decoded batch or a Sorter's unpacked one (up to 4 096
//     rows).
//   - Dir: the per-run temp directory and its one spill file. Every
//     sealed run of the run, from any sorter or buffer on any worker, is
//     appended to that file as an extent (one positioned write at an
//     atomically reserved offset) and read back with positioned reads.
//     Removed wholesale when the run ends (success, error, or
//     cancellation alike).
//
// The package is engine-agnostic: it never touches transports, plans, or
// tracing. The engine supplies its run's Dir (Config.Create) and an
// OnSpill hook and maps the sentinel errors onto its own. The budget semantics, seal
// policies, and operator integration are specified in DESIGN.md's "Memory
// management & spilling" section; the interaction with parallel sub-joins
// is in "Intra-worker parallelism".
package spill
