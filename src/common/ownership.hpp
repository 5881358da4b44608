// Static ownership annotations — the compile-time mirror of
// ProtocolChecker's Fig 9 single-writer matrix.
//
// The dynamic checker proves, per run, that only the owning side of a slot
// state word ever transitions it. These macros state the same single-writer
// discipline *in the source*, on every piece of shared state the engines
// exchange, so `tools/algas_lint` can reject an ownership violation at lint
// time — before any simulation executes. They expand to nothing: zero
// compile-time or runtime cost, pure greppable contract.
//
//   ALGAS_OWNED_BY(Actors...)
//     The field may only be written from member functions of the listed
//     actor classes. One actor = strict single writer (Fig 9's diagonal).
//
//   ALGAS_GUARDED_BY_EPOCH(Actors...)
//     Write rights rotate between the listed actors, handed off by an
//     epoch: the slot state machine (CTA owns the field while the word is
//     in Work, the host worker outside it) or a generation stamp
//     (StampedSet). The static check admits every listed actor; WHICH
//     one may write at a given virtual time is the dynamic half, enforced
//     by ProtocolChecker/SimCheck. This is exactly the pre-wiring the
//     streaming-mutability roadmap item needs: concurrent insert+search
//     adds writers, and they must appear here to pass the lint.
//
//   ALGAS_IMMUTABLE_AFTER_PUBLISH
//     For value structs (SharedMemoryLayout, configs) built up field by
//     field and then handed to the system: writes are legal only while the
//     object is still a function-local value under construction. Once
//     published — stored in an engine, passed across an interface — the
//     lint rejects any further field write outside the declaring class.
//
// Usage: place the annotation between the declarator and the initializer,
// like clang's thread-safety attributes:
//
//   std::vector<SlotState> states_ ALGAS_GUARDED_BY_EPOCH(StateSync);
//   std::uint64_t host_polls_ ALGAS_OWNED_BY(StateSync) = 0;
//
// The cross-check lives in tools/algas_lint/algas_lint.py (rule
// `ownership`); see DESIGN.md "Static analysis and the ownership model".
#pragma once

#define ALGAS_OWNED_BY(...)
#define ALGAS_GUARDED_BY_EPOCH(...)
#define ALGAS_IMMUTABLE_AFTER_PUBLISH
