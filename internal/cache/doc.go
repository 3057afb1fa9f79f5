// Package cache implements the result cache: materialized query answers
// with load-epoch invalidation.
//
// # Key
//
// Key renders a fully bound query as its datalog rule, prefixed by the
// operation (run/count) and the requested strategy. The rule text carries
// the head name, the live variable names (output column names must replay
// byte-identically) and every constant, so only the same bound rule shares
// an entry. A prepared execution binds its arguments as constants before
// the probe, so it shares an entry with the ad-hoc rule that inlines the
// same values.
//
// # Result cache
//
// Entries replay byte-identical rows (deep-copied on both insert and
// lookup, so callers can mutate freely) and carry the catalog epoch they
// were computed at; a mutation makes them unreachable. The cache is bounded
// by a tuple budget with LRU eviction; bytes are charged at the spill
// layer's convention of eight bytes per value. Runs under chaos fault
// injection, forced spilling, or EXPLAIN capture bypass the result cache —
// see the bypass rules in the parajoin package.
package cache
