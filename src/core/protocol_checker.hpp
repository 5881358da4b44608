// ProtocolChecker — slot-protocol verification over the SimCheck layer.
//
// Watches every StateSync access and enforces, per state word:
//   * Fig 5 transition legality (None->Work->Finish->Done->{Work,Quit}).
//   * Fig 9 single-writer ownership: a write by the side that does not own
//     the word's current state is reported as a race. Combined with the
//     per-side virtual-time monotonicity check this is a happens-before
//     detector over state words: two actors of one side touching the same
//     word out of virtual-time order cannot hide behind the deterministic
//     event loop.
//   * §V-A channel conservation: mirrored-mode polls must generate zero
//     channel transactions; every state write-through must appear exactly
//     once in the channel's kStateWrite transaction count.
//   * Drain hygiene: when the event queue drains while any word is not in
//     Quit, every stuck slot is reported with its per-word event trace.
//
// The checker is a pure observer (never charges virtual time) and fails
// fast through SimCheck::fail.
//
// Note on cross-side timestamps: the substrate publishes a state change at
// the writer's event time while charging the write's cost to the writer's
// elapsed-time cursor, so a reader may legitimately observe a state before
// the writer's charged completion stamp. Happens-before is therefore
// checked per side (where stamps are totally ordered), and cross-side
// ordering is checked structurally via the ownership hand-off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/slot.hpp"
#include "simgpu/channel.hpp"
#include "simgpu/checker.hpp"

namespace algas::core {

class StateSync;

class ProtocolChecker {
 public:
  /// Registers itself as `check`'s drain hook; the destructor unregisters.
  ProtocolChecker(sim::SimCheck* check, StateSync* sync,
                  sim::Channel* channel);
  ~ProtocolChecker();

  ProtocolChecker(const ProtocolChecker&) = delete;
  ProtocolChecker& operator=(const ProtocolChecker&) = delete;

  /// StateSync read hook (after any channel traffic was issued).
  void on_read(Side side, SimTime t, std::size_t slot, std::size_t cta,
               SlotState observed);

  /// StateSync write hook, called BEFORE the transition is applied or any
  /// traffic issued — an illegal write reports before its side effects.
  void pre_write(Side side, SimTime t, std::size_t slot, std::size_t cta,
                 SlotState from, SlotState to);

  /// StateSync write hook after the transition and its write-through.
  void post_write(Side side, SimTime t, std::size_t slot, std::size_t cta,
                  SlotState to);

  /// When set, a natural event-queue drain with any word not in Quit is a
  /// deadlock violation (engines expect full retirement before drain).
  void expect_full_drain(bool on) { expect_full_drain_ = on; }
  void on_drain(SimTime t);

  /// Closing audit after Simulation::run(): channel conservation balance
  /// and write-count parity against StateSync's transition counter.
  void finalize(SimTime t);

  std::uint64_t writes_observed() const { return writes_observed_; }

 private:
  struct WordState {
    SimTime last_host_ns = -1.0;    ///< last host access stamp (per-side HB)
    SimTime last_device_ns = -1.0;  ///< last device access stamp
    SimTime last_write_ns = -1.0;
    Side last_writer = Side::kNone;
    int host_seen = -1;    ///< last state the host observed (edge tracing)
    int device_seen = -1;  ///< last state the device observed
  };

  static std::string word_key(std::size_t slot, std::size_t cta);
  WordState& word(std::size_t slot, std::size_t cta);
  /// Per-side virtual-time monotonicity on one word.
  void check_side_order(Side side, SimTime t, std::size_t slot,
                        std::size_t cta, const char* op);
  /// Compare the channel's state-traffic counters with the expected model.
  void audit_channel(SimTime t, std::size_t slot, std::size_t cta,
                     const char* op);

  sim::SimCheck* check_;
  StateSync* sync_;
  sim::Channel* channel_;
  std::vector<WordState> words_;
  std::uint64_t base_polls_ = 0;   ///< channel counters at construction
  std::uint64_t base_writes_ = 0;
  std::uint64_t expected_polls_ = 0;
  std::uint64_t expected_writes_ = 0;
  std::uint64_t writes_observed_ = 0;
  bool expect_full_drain_ = false;
};

}  // namespace algas::core
