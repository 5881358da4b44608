#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "core/protocol_checker.hpp"
#include "core/query_manager.hpp"
#include "core/search_ahead.hpp"
#include "core/slot.hpp"
#include "core/state_sync.hpp"
#include "core/tuner.hpp"
#include "search/greedy.hpp"
#include "search/multi_cta.hpp"
#include "simgpu/checker.hpp"
#include "simgpu/trace.hpp"
#include "test_util.hpp"

namespace algas::core {
namespace {

// ---------------- slot.hpp ----------------

TEST(Slot, StateNames) {
  EXPECT_STREQ(slot_state_name(SlotState::kNone), "None");
  EXPECT_STREQ(slot_state_name(SlotState::kWork), "Work");
  EXPECT_STREQ(slot_state_name(SlotState::kFinish), "Finish");
  EXPECT_STREQ(slot_state_name(SlotState::kDone), "Done");
  EXPECT_STREQ(slot_state_name(SlotState::kQuit), "Quit");
  EXPECT_STREQ(slot_state_name(SlotState::kExpired), "Expired");
}

TEST(Slot, Fig5TransitionsLegal) {
  EXPECT_TRUE(is_legal_transition(SlotState::kNone, SlotState::kWork));
  EXPECT_TRUE(is_legal_transition(SlotState::kWork, SlotState::kFinish));
  EXPECT_TRUE(is_legal_transition(SlotState::kFinish, SlotState::kDone));
  EXPECT_TRUE(is_legal_transition(SlotState::kDone, SlotState::kWork));
  EXPECT_TRUE(is_legal_transition(SlotState::kDone, SlotState::kQuit));
  EXPECT_TRUE(is_legal_transition(SlotState::kNone, SlotState::kQuit));
  // Serving extension: eviction of a past-deadline query at completion
  // detection. Expired behaves like Done for its outgoing edges.
  EXPECT_TRUE(is_legal_transition(SlotState::kFinish, SlotState::kExpired));
  EXPECT_TRUE(is_legal_transition(SlotState::kExpired, SlotState::kWork));
  EXPECT_TRUE(is_legal_transition(SlotState::kExpired, SlotState::kQuit));
}

TEST(Slot, IllegalTransitionsRejected) {
  EXPECT_FALSE(is_legal_transition(SlotState::kWork, SlotState::kWork));
  EXPECT_FALSE(is_legal_transition(SlotState::kWork, SlotState::kDone));
  EXPECT_FALSE(is_legal_transition(SlotState::kFinish, SlotState::kWork));
  EXPECT_FALSE(is_legal_transition(SlotState::kQuit, SlotState::kWork));
  EXPECT_FALSE(is_legal_transition(SlotState::kNone, SlotState::kFinish));
  // A running CTA cannot be preempted: expiry happens only at completion
  // detection (Finish), never out of Work, and never re-enters Done.
  EXPECT_FALSE(is_legal_transition(SlotState::kWork, SlotState::kExpired));
  EXPECT_FALSE(is_legal_transition(SlotState::kNone, SlotState::kExpired));
  EXPECT_FALSE(is_legal_transition(SlotState::kDone, SlotState::kExpired));
  EXPECT_FALSE(is_legal_transition(SlotState::kExpired, SlotState::kDone));
  EXPECT_FALSE(is_legal_transition(SlotState::kExpired, SlotState::kFinish));
}

TEST(Slot, TransitionMatrixExhaustive) {
  // All 36 (from, to) pairs against the Fig 5 edge list (+ the serving
  // Expired extension): exactly the nine protocol edges are legal,
  // everything else (self-loops included) is not.
  const SlotState all[] = {SlotState::kNone,    SlotState::kWork,
                           SlotState::kFinish,  SlotState::kDone,
                           SlotState::kQuit,    SlotState::kExpired};
  auto fig5 = [](SlotState from, SlotState to) {
    return (from == SlotState::kNone && to == SlotState::kWork) ||
           (from == SlotState::kWork && to == SlotState::kFinish) ||
           (from == SlotState::kFinish && to == SlotState::kDone) ||
           (from == SlotState::kDone && to == SlotState::kWork) ||
           (from == SlotState::kDone && to == SlotState::kQuit) ||
           (from == SlotState::kNone && to == SlotState::kQuit) ||
           (from == SlotState::kFinish && to == SlotState::kExpired) ||
           (from == SlotState::kExpired && to == SlotState::kWork) ||
           (from == SlotState::kExpired && to == SlotState::kQuit);
  };
  int legal = 0;
  for (SlotState from : all) {
    for (SlotState to : all) {
      EXPECT_EQ(is_legal_transition(from, to), fig5(from, to))
          << slot_state_name(from) << " -> " << slot_state_name(to);
      legal += is_legal_transition(from, to) ? 1 : 0;
    }
  }
  EXPECT_EQ(legal, 9);
}

TEST(Slot, Fig9SingleWriterOwnership) {
  // The side allowed to transition a word OUT of each state: host owns
  // None/Finish/Done/Expired, the device owns Work, Quit is terminal.
  EXPECT_EQ(state_owner(SlotState::kNone), Side::kHost);
  EXPECT_EQ(state_owner(SlotState::kWork), Side::kDevice);
  EXPECT_EQ(state_owner(SlotState::kFinish), Side::kHost);
  EXPECT_EQ(state_owner(SlotState::kDone), Side::kHost);
  EXPECT_EQ(state_owner(SlotState::kQuit), Side::kNone);
  EXPECT_EQ(state_owner(SlotState::kExpired), Side::kHost);
  EXPECT_STREQ(side_name(Side::kHost), "host");
  EXPECT_STREQ(side_name(Side::kDevice), "device");
  EXPECT_STREQ(side_name(Side::kNone), "none");
}

// ---------------- tuner.hpp ----------------

sim::SharedMemoryLayout small_layout() {
  sim::SharedMemoryLayout layout;
  layout.candidate_entries = 128;
  layout.expand_entries = 64;
  layout.dim = 128;
  return layout;
}

TEST(Tuner, MaximizesParallelismUnderBlockLimit) {
  TuneInput in;
  in.device = sim::DeviceProps::rtx_a6000();
  in.slots = 16;
  in.layout = small_layout();
  const auto plan = tune(in);
  ASSERT_TRUE(plan.ok) << plan.reason;
  // Block limit alone allows 84*16/16 = 84; shared memory will clamp it.
  EXPECT_GE(plan.n_parallel, 1u);
  EXPECT_LE(plan.n_parallel * in.slots, in.device.max_resident_blocks());
  EXPECT_EQ(plan.total_ctas, plan.n_parallel * in.slots);
  EXPECT_EQ(plan.threads_per_block, 32u);
}

TEST(Tuner, RespectsRequestedParallel) {
  TuneInput in;
  in.device = sim::DeviceProps::rtx_a6000();
  in.slots = 16;
  in.layout = small_layout();
  in.requested_parallel = 4;
  const auto plan = tune(in);
  ASSERT_TRUE(plan.ok);
  EXPECT_EQ(plan.n_parallel, 4u);
}

TEST(Tuner, SharedMemoryConstraintHolds) {
  // Property: for every slot count, the produced plan satisfies
  // M_avail_per_block >= layout AND blocks/SM consistent with total CTAs.
  for (std::size_t slots : {1, 2, 4, 8, 16, 32, 64}) {
    TuneInput in;
    in.device = sim::DeviceProps::rtx_a6000();
    in.slots = slots;
    in.layout = small_layout();
    const auto plan = tune(in);
    ASSERT_TRUE(plan.ok) << "slots=" << slots << ": " << plan.reason;
    EXPECT_GE(plan.avail_per_block, plan.shared_mem_per_block);
    EXPECT_EQ(plan.blocks_per_sm,
              ceil_div(plan.total_ctas, in.device.num_sms));
    const auto occ = sim::check_occupancy(in.device, in.layout,
                                          plan.blocks_per_sm,
                                          plan.reserved_per_block);
    EXPECT_TRUE(occ.fits) << occ.reason;
  }
}

TEST(Tuner, BigLayoutReducesParallelism) {
  // With 64 slots the shared-memory constraint binds for a GIST-sized
  // layout, forcing N_parallel below the auto cap.
  TuneInput small_in;
  small_in.device = sim::DeviceProps::rtx_a6000();
  small_in.slots = 64;
  small_in.layout = small_layout();

  TuneInput big_in = small_in;
  big_in.layout.candidate_entries = 2048;
  big_in.layout.expand_entries = 1024;
  big_in.layout.dim = 960;

  const auto small_plan = tune(small_in);
  const auto big_plan = tune(big_in);
  ASSERT_TRUE(small_plan.ok);
  ASSERT_TRUE(big_plan.ok);
  EXPECT_LT(big_plan.n_parallel, small_plan.n_parallel);
}

TEST(Tuner, FailsWhenNothingFits) {
  TuneInput in;
  in.device = sim::DeviceProps::tiny_test_device();
  in.slots = 4;
  in.layout.candidate_entries = 8192;
  in.layout.expand_entries = 8192;
  in.layout.dim = 960;
  const auto plan = tune(in);
  EXPECT_FALSE(plan.ok);
  EXPECT_FALSE(plan.reason.empty());
}

TEST(Tuner, FailsOnTooManySlots) {
  TuneInput in;
  in.device = sim::DeviceProps::tiny_test_device();  // 16 resident blocks
  in.slots = 17;
  in.layout = small_layout();
  EXPECT_FALSE(tune(in).ok);
}

TEST(Tuner, AutoReservedScalesWithDim) {
  EXPECT_LT(auto_reserved_bytes(128), auto_reserved_bytes(960));
  EXPECT_GE(auto_reserved_bytes(16), 1024u);
}

TEST(Tuner, DescribeMentionsPlan) {
  TuneInput in;
  in.device = sim::DeviceProps::rtx_a6000();
  in.slots = 8;
  in.layout = small_layout();
  const auto plan = tune(in);
  ASSERT_TRUE(plan.ok);
  EXPECT_NE(plan.describe().find("N_parallel="), std::string::npos);
}

// ---------------- state_sync.hpp ----------------

TEST(StateSync, NaivePollsCrossChannel) {
  sim::CostModel cm;
  sim::Channel ch(cm);
  StateSync sync(&ch, cm, 2, 2, /*mirrored=*/false);
  double elapsed = 0.0;
  EXPECT_EQ(sync.host_read(0.0, 0, 0, &elapsed), SlotState::kNone);
  EXPECT_EQ(ch.counters(sim::Xfer::kStatePoll).transactions, 1u);
  EXPECT_GT(elapsed, cm.poll_remote_ns * 0.9);
}

TEST(StateSync, MirroredPollsStayLocal) {
  sim::CostModel cm;
  sim::Channel ch(cm);
  StateSync sync(&ch, cm, 2, 2, /*mirrored=*/true);
  double elapsed = 0.0;
  for (int i = 0; i < 100; ++i) sync.host_read(0.0, 0, 0, &elapsed);
  EXPECT_EQ(ch.counters(sim::Xfer::kStatePoll).transactions, 0u);
  EXPECT_LT(elapsed, 100 * cm.poll_local_ns * 1.5);
  EXPECT_EQ(sync.host_polls(), 100u);
}

TEST(StateSync, WritesCrossOnceInBothModes) {
  sim::CostModel cm;
  for (bool mirrored : {false, true}) {
    sim::Channel ch(cm);
    StateSync sync(&ch, cm, 1, 1, mirrored);
    double elapsed = 0.0;
    sync.host_write(0.0, 0, 0, SlotState::kWork, &elapsed);
    sync.device_write(0.0, 0, 0, SlotState::kFinish, &elapsed);
    // Host write always crosses; device write crosses only when mirrored.
    EXPECT_EQ(ch.counters(sim::Xfer::kStateWrite).transactions,
              mirrored ? 2u : 1u);
  }
}

TEST(StateSync, FullLifecycleAndAllInState) {
  sim::CostModel cm;
  sim::Channel ch(cm);
  StateSync sync(&ch, cm, 1, 3, true);
  double e = 0.0;
  for (std::size_t c = 0; c < 3; ++c) {
    sync.host_write(0.0, 0, c, SlotState::kWork, &e);
  }
  EXPECT_FALSE(sync.host_all_in_state(0.0, 0, SlotState::kFinish, &e));
  for (std::size_t c = 0; c < 3; ++c) {
    sync.device_write(0.0, 0, c, SlotState::kFinish, &e);
  }
  EXPECT_TRUE(sync.host_all_in_state(0.0, 0, SlotState::kFinish, &e));
  EXPECT_EQ(sync.state_transitions(), 6u);
}

TEST(StateSync, IllegalTransitionThrows) {
  sim::CostModel cm;
  sim::Channel ch(cm);
  StateSync sync(&ch, cm, 1, 1, true);
  double e = 0.0;
  EXPECT_THROW(sync.host_write(0.0, 0, 0, SlotState::kFinish, &e),
               std::logic_error);
}

// ---------------- protocol_checker.hpp ----------------

/// StateSync with the full SimCheck/ProtocolChecker stack attached.
struct CheckedSync {
  sim::CostModel cm;
  sim::Channel ch;
  sim::SimCheck check;
  StateSync sync;
  ProtocolChecker protocol;

  CheckedSync(std::size_t slots, std::size_t ctas, bool mirrored)
      : ch(cm),
        sync(&ch, cm, slots, ctas, mirrored),
        protocol(&check, &sync, &ch) {
    sync.set_checker(&protocol);
  }
};

/// Run `fn`, demand a SimCheckError of class `kind`, return its report.
std::string violation_report(const std::function<void()>& fn,
                             const std::string& kind) {
  try {
    fn();
  } catch (const sim::SimCheckError& e) {
    EXPECT_EQ(e.kind(), kind) << e.what();
    return e.what();
  }
  ADD_FAILURE() << "expected a SimCheck violation of kind [" << kind << "]";
  return {};
}

TEST(ProtocolChecker, LegalLifecycleRunsClean) {
  for (bool mirrored : {false, true}) {
    CheckedSync cs(1, 2, mirrored);
    double e = 0.0;
    double t = 0.0;
    for (std::size_t c = 0; c < 2; ++c) {
      cs.sync.host_write(t, 0, c, SlotState::kWork, &e);
      cs.sync.device_read(t += 10, 0, c, &e);
      cs.sync.device_write(t += 10, 0, c, SlotState::kFinish, &e);
      cs.sync.host_read(t += 10, 0, c, &e);
      cs.sync.host_write(t += 10, 0, c, SlotState::kDone, &e);
      cs.sync.host_write(t += 10, 0, c, SlotState::kQuit, &e);
    }
    EXPECT_NO_THROW(cs.protocol.finalize(t));
    EXPECT_EQ(cs.check.violations(), 0u);
    EXPECT_GT(cs.check.checks_performed(), 20u);
    EXPECT_EQ(cs.protocol.writes_observed(), 8u);
  }
}

TEST(ProtocolChecker, DeviceWriteOfHostOwnedWordIsRace) {
  // Mutation: after Finish the word is host-owned; a device Finish->Work
  // write must be reported as a Fig 9 race, with the word's trace attached,
  // BEFORE any state mutation happens.
  CheckedSync cs(1, 1, /*mirrored=*/true);
  double e = 0.0;
  cs.sync.host_write(0.0, 0, 0, SlotState::kWork, &e);
  cs.sync.device_write(10.0, 0, 0, SlotState::kFinish, &e);
  const std::string report = violation_report(
      [&] { cs.sync.device_write(20.0, 0, 0, SlotState::kWork, &e); },
      "ownership");
  EXPECT_NE(report.find("Fig 9 ownership violation"), std::string::npos)
      << report;
  EXPECT_NE(report.find("slot0.cta0"), std::string::npos);
  EXPECT_NE(report.find("device wrote Finish"), std::string::npos)
      << "report must carry the word's event trace:\n" << report;
  EXPECT_EQ(cs.sync.peek(0, 0), SlotState::kFinish)
      << "the racing write must report before mutating the word";
  EXPECT_EQ(cs.check.violations(), 1u);
}

TEST(ProtocolChecker, IllegalHostTransitionReportsBeforeSideEffects) {
  // None is host-owned, so ownership passes; None->Finish is simply not a
  // Fig 5 edge. The report fires before channel traffic or mutation.
  CheckedSync cs(1, 1, /*mirrored=*/true);
  double e = 0.0;
  const auto writes_before =
      cs.ch.counters(sim::Xfer::kStateWrite).transactions;
  const std::string report = violation_report(
      [&] { cs.sync.host_write(0.0, 0, 0, SlotState::kFinish, &e); },
      "illegal-transition");
  EXPECT_NE(report.find("Fig 5 permits"), std::string::npos) << report;
  EXPECT_EQ(cs.sync.peek(0, 0), SlotState::kNone);
  EXPECT_EQ(cs.ch.counters(sim::Xfer::kStateWrite).transactions,
            writes_before)
      << "an illegal write must not issue its write-through";
}

TEST(ProtocolChecker, ExpiredLifecycleRunsClean) {
  // The serving eviction path: Work -> Finish -> Expired (host evicts a
  // past-deadline query), then the slot is reused (Expired -> Work) and
  // finally retired (Expired -> Quit). All legal; finalize stays clean.
  for (bool mirrored : {false, true}) {
    CheckedSync cs(1, 1, mirrored);
    double e = 0.0;
    double t = 0.0;
    cs.sync.host_write(t, 0, 0, SlotState::kWork, &e);
    cs.sync.device_write(t += 10, 0, 0, SlotState::kFinish, &e);
    cs.sync.host_write(t += 10, 0, 0, SlotState::kExpired, &e);
    cs.sync.host_write(t += 10, 0, 0, SlotState::kWork, &e);
    cs.sync.device_write(t += 10, 0, 0, SlotState::kFinish, &e);
    cs.sync.host_write(t += 10, 0, 0, SlotState::kExpired, &e);
    cs.sync.host_write(t += 10, 0, 0, SlotState::kQuit, &e);
    cs.protocol.expect_full_drain(true);
    EXPECT_NO_THROW(cs.protocol.finalize(t + 10));
    EXPECT_EQ(cs.check.violations(), 0u);
  }
}

TEST(ProtocolChecker, DevicePreemptionToExpiredIsIllegalTransition) {
  // Mutation: the device tries to expire a RUNNING query (Work -> Expired).
  // Work is device-owned so ownership passes, but preemption is not a
  // protocol edge — eviction may only happen at completion detection.
  CheckedSync cs(1, 1, /*mirrored=*/true);
  double e = 0.0;
  cs.sync.host_write(0.0, 0, 0, SlotState::kWork, &e);
  const std::string report = violation_report(
      [&] { cs.sync.device_write(10.0, 0, 0, SlotState::kExpired, &e); },
      "illegal-transition");
  EXPECT_NE(report.find("Fig 5 permits"), std::string::npos) << report;
  EXPECT_EQ(cs.sync.peek(0, 0), SlotState::kWork)
      << "the illegal write must report before mutating the word";
}

TEST(ProtocolChecker, ExpiredToDoneIsIllegalTransition) {
  // Mutation: the host tries to "un-evict" (Expired -> Done). Expired is
  // host-owned so ownership passes; the edge itself is not in the matrix
  // (an evicted query's results never reach the collector as served).
  CheckedSync cs(1, 1, /*mirrored=*/true);
  double e = 0.0;
  cs.sync.host_write(0.0, 0, 0, SlotState::kWork, &e);
  cs.sync.device_write(10.0, 0, 0, SlotState::kFinish, &e);
  cs.sync.host_write(20.0, 0, 0, SlotState::kExpired, &e);
  const std::string report = violation_report(
      [&] { cs.sync.host_write(30.0, 0, 0, SlotState::kDone, &e); },
      "illegal-transition");
  EXPECT_NE(report.find("Fig 5 permits"), std::string::npos) << report;
  EXPECT_EQ(cs.sync.peek(0, 0), SlotState::kExpired);
}

TEST(ProtocolChecker, DeviceWriteOutOfExpiredIsRace) {
  // Mutation: Expired is host-owned (like Done, the host decides whether
  // the slot is reused or retired); a device Expired -> Work write is a
  // Fig 9 single-writer race even though the edge itself is legal.
  CheckedSync cs(1, 1, /*mirrored=*/true);
  double e = 0.0;
  cs.sync.host_write(0.0, 0, 0, SlotState::kWork, &e);
  cs.sync.device_write(10.0, 0, 0, SlotState::kFinish, &e);
  cs.sync.host_write(20.0, 0, 0, SlotState::kExpired, &e);
  const std::string report = violation_report(
      [&] { cs.sync.device_write(30.0, 0, 0, SlotState::kWork, &e); },
      "ownership");
  EXPECT_NE(report.find("Fig 9 ownership violation"), std::string::npos)
      << report;
  EXPECT_EQ(cs.sync.peek(0, 0), SlotState::kExpired);
  EXPECT_EQ(cs.check.violations(), 1u);
}

TEST(ProtocolChecker, MirroredPollCrossingChannelIsConservationViolation) {
  // Mutation: fake a buggy mirrored poll by issuing the channel transaction
  // a naive poll would. The next audited access flags the imbalance.
  CheckedSync cs(1, 1, /*mirrored=*/true);
  double e = 0.0;
  EXPECT_NO_THROW(cs.sync.host_read(0.0, 0, 0, &e));
  cs.ch.post(0.0, 4, sim::Xfer::kStatePoll);  // traffic the model forbids
  const std::string report = violation_report(
      [&] { cs.sync.host_read(10.0, 0, 0, &e); }, "channel-conservation");
  EXPECT_NE(report.find("mirrored-mode poll generated channel traffic"),
            std::string::npos)
      << report;
}

TEST(ProtocolChecker, DuplicateWriteThroughCaughtAtFinalize) {
  CheckedSync cs(1, 1, /*mirrored=*/true);
  double e = 0.0;
  cs.sync.host_write(0.0, 0, 0, SlotState::kWork, &e);
  cs.ch.post(0.0, 4, sim::Xfer::kStateWrite);  // write-through issued twice
  const std::string report = violation_report(
      [&] { cs.protocol.finalize(10.0); }, "channel-conservation");
  EXPECT_NE(report.find("issued more than once"), std::string::npos)
      << report;
}

TEST(ProtocolChecker, PrematureDrainReportsStuckWordsWithTraces) {
  // A drain while slot0.cta0 sits in Work (and cta1 never started) is the
  // deadlock signature; the report names every stuck word, its last writer,
  // and dumps its trace.
  CheckedSync cs(1, 2, /*mirrored=*/true);
  double e = 0.0;
  cs.sync.host_write(5.0, 0, 0, SlotState::kWork, &e);
  cs.protocol.expect_full_drain(true);
  const std::string report = violation_report(
      [&] { cs.protocol.on_drain(100.0); }, "deadlock");
  EXPECT_NE(report.find("never reached Quit"), std::string::npos) << report;
  EXPECT_NE(report.find("slot0.cta0: state=Work"), std::string::npos);
  EXPECT_NE(report.find("last written by host"), std::string::npos);
  EXPECT_NE(report.find("slot0.cta1: state=None"), std::string::npos);
  EXPECT_NE(report.find("host wrote Work"), std::string::npos)
      << "report must include the stuck word's trace:\n" << report;
}

TEST(ProtocolChecker, CleanDrainAfterFullRetirementPasses) {
  CheckedSync cs(1, 1, /*mirrored=*/true);
  double e = 0.0;
  cs.sync.host_write(0.0, 0, 0, SlotState::kQuit, &e);
  cs.protocol.expect_full_drain(true);
  EXPECT_NO_THROW(cs.protocol.on_drain(10.0));
  EXPECT_EQ(cs.check.violations(), 0u);
}

// ---------------- query_manager.hpp ----------------

TEST(QueryManager, FifoPopRespectsArrival) {
  QueryManager qm;
  qm.push({0, 10.0});
  qm.push({1, 20.0});
  EXPECT_FALSE(qm.pop_ready(5.0).has_value());
  const auto q = qm.pop_ready(15.0);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->query_index, 0u);
  EXPECT_DOUBLE_EQ(qm.next_arrival(), 20.0);
  EXPECT_EQ(qm.pending(), 1u);
}

TEST(QueryManager, RejectsDecreasingArrivals) {
  QueryManager qm;
  qm.push({0, 10.0});
  EXPECT_THROW(qm.push({1, 5.0}), std::invalid_argument);
}

TEST(QueryManager, CheckedArrivalOrderViolationCarriesTrace) {
  sim::SimCheck check;
  QueryManager qm(&check);
  qm.push({0, 10.0});
  const std::string report = violation_report(
      [&] { qm.push({1, 5.0}); }, "arrival-order");
  EXPECT_NE(report.find("arrivals must be nondecreasing"), std::string::npos)
      << report;
  EXPECT_NE(report.find("push q0 arrival=10ns"), std::string::npos)
      << "report must carry the queue's trace:\n" << report;
}

TEST(QueryManager, EmptyNextArrivalIsInfinite) {
  QueryManager qm;
  EXPECT_TRUE(std::isinf(qm.next_arrival()));
}

// ---------------- search/multi_cta.hpp ----------------

TEST(VisitedClearWords, NonDivisibleWordCountPinned) {
  // num_base=1001 -> ceil(1001/64) = 16 bitmap words. Split across 4 CTAs
  // each clears ceil(16/4) = 4. The seed formula (16/4 + 1 = 5) charged a
  // phantom extra word whenever n_parallel divided the word count.
  EXPECT_EQ(search::visited_clear_words(1001, 4), 4u);
  // 17 words over 4 CTAs: the remainder word is charged (ceil, not floor).
  EXPECT_EQ(search::visited_clear_words(1025, 4), 5u);
  // Degenerate inputs stay sane.
  EXPECT_EQ(search::visited_clear_words(1, 1), 1u);
  EXPECT_EQ(search::visited_clear_words(64, 1), 1u);
  EXPECT_EQ(search::visited_clear_words(65, 1), 2u);
  EXPECT_EQ(search::visited_clear_words(1000, 0), 16u);  // n_parallel clamped to 1
}

TEST(VisitedClearWords, PerCtaSharesCoverWholeBitmap) {
  // The per-CTA share times the CTA count must cover every bitmap word and
  // never exceed it by more than one partial round of slack.
  for (std::size_t num_base : {63u, 64u, 65u, 1000u, 1001u, 4096u, 100000u}) {
    const std::size_t words = ceil_div(num_base, std::size_t{64});
    for (std::size_t n : {1u, 2u, 3u, 4u, 7u, 16u}) {
      const std::size_t share = search::visited_clear_words(num_base, n);
      EXPECT_GE(share * n, words) << num_base << "/" << n;
      EXPECT_LT((share - 1) * n, words) << num_base << "/" << n;
    }
  }
}

TEST(VisitedClearWords, ChargedCostMatchesFormula) {
  // The virtual nanoseconds a CTA pays at query start for its bitmap share.
  const sim::CostModel cm;
  const double charged = static_cast<double>(search::visited_clear_words(1001, 4)) *
                         cm.bitmap_clear_per_word_ns;
  EXPECT_DOUBLE_EQ(charged, 4.0 * cm.bitmap_clear_per_word_ns);
}

// ---------------- search_ahead.hpp ----------------

/// FNV-1a over every field of a finished search, floats by their bits.
std::uint64_t digest(const search::MultiCtaResult& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ull; };
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  for (const KV& kv : r.topk) {
    mix(std::bit_cast<std::uint32_t>(kv.dist));
    mix(kv.key);
  }
  mix(r.per_cta_total.rounds);
  mix(r.per_cta_total.expanded_points);
  mix(r.per_cta_total.scored_points);
  mix(bits(r.per_cta_total.cost.total_ns()));
  for (double ns : r.per_cta_ns) mix(bits(ns));
  mix(r.run_len);
  mix(bits(r.critical_path_ns));
  mix(r.rounds_max);
  for (double ns : r.round_ns) mix(bits(ns));
  for (std::size_t b : r.round_begin) mix(b);
  return h;
}

/// One step of a search-ahead schedule: take or release `query`.
struct AheadStep {
  std::size_t query;
  bool take;
};

/// Runs `steps` through a SearchAhead over `queries` on `exec`, searching
/// with one MultiCtaSearch per lane as the engine does, and returns the
/// digest of each take. Flags a search that starts while more than
/// `window` arrivals past those consumed so far have started.
std::vector<std::uint64_t> run_ahead(BuildExecutor& exec,
                                     const std::vector<std::size_t>& queries,
                                     const std::vector<AheadStep>& steps,
                                     std::size_t window,
                                     std::atomic<bool>* over_window) {
  const auto& world = algas::testing::tiny_world();
  search::SearchConfig cfg;
  cfg.topk = 4;
  cfg.candidate_len = 16;
  const sim::CostModel cm;
  std::vector<std::unique_ptr<search::MultiCtaSearch>> searchers(
      exec.threads() + 1);
  std::atomic<std::size_t> started{0};
  std::atomic<std::size_t> consumed{0};
  std::vector<std::uint64_t> digests;
  {
    SearchAhead ahead(
        queries, window,
        [&](std::size_t q, std::size_t lane) {
          if (started.fetch_add(1) + 1 > consumed.load() + window) {
            over_window->store(true);
          }
          auto& s = searchers[lane];
          if (!s) {
            s = std::make_unique<search::MultiCtaSearch>(world.ds, world.nsw,
                                                         cm, cfg, 2, 7);
          }
          return s->run(world.ds.query(q), q);
        },
        exec);
    for (const AheadStep& step : steps) {
      consumed.fetch_add(1);
      if (step.take) {
        digests.push_back(digest(ahead.take(step.query)));
      } else {
        ahead.release(step.query);
      }
    }
  }  // the rest are never consumed: teardown drops them
  return digests;
}

TEST(SearchAhead, StressOnFourWorkersMatchesInlineAndMultiCtaSearch) {
  // Takes out of arrival order (each block of 12 backwards, past a window
  // of 4), every query index repeated, every fifth arrival shed and the
  // last block never consumed. Each take must equal the inline run's and
  // multi_cta_search's.
  const auto& world = algas::testing::tiny_world();
  const std::size_t nq = world.ds.num_queries();
  const std::size_t n = 4000;
  const std::size_t block = 12;
  const std::size_t window = 4;
  std::vector<std::size_t> queries(n);
  for (std::size_t a = 0; a < n; ++a) queries[a] = a / 2 * 7 % nq;
  std::vector<AheadStep> steps;
  for (std::size_t b = 0; b + 2 * block <= n; b += block) {
    for (std::size_t a = b + block; a-- > b;) {
      steps.push_back({queries[a], a % 5 != 3});
    }
  }
  std::atomic<bool> over_window{false};
  BuildExecutor inline_exec(1);
  BuildExecutor pool_exec(4);
  const auto want =
      run_ahead(inline_exec, queries, steps, window, &over_window);
  const auto got = run_ahead(pool_exec, queries, steps, window, &over_window);
  EXPECT_FALSE(over_window.load());
  ASSERT_EQ(got.size(), want.size());

  search::SearchConfig cfg;
  cfg.topk = 4;
  cfg.candidate_len = 16;
  std::vector<std::uint64_t> ref(nq);
  for (std::size_t q = 0; q < nq; ++q) {
    ref[q] = digest(search::multi_cta_search(world.ds, world.nsw,
                                             sim::CostModel{}, cfg, 2,
                                             world.ds.query(q), q, 7));
  }
  std::size_t t = 0;
  for (const AheadStep& step : steps) {
    if (!step.take) continue;
    ASSERT_EQ(got[t], want[t]) << "take " << t;
    ASSERT_EQ(got[t], ref[step.query]) << "take " << t;
    ++t;
  }
}

TEST(SearchAhead, FailureIsRethrownAtItsTakeAndTeardownWaits) {
  // Two workers hold arrivals 0 and 1 until the test thread runs a
  // search; so take(0) finds arrival 0 held and runs arrival 2 meanwhile,
  // which throws. Arrival 1 throws on its worker. Each failure must come
  // back at its own query's take, and teardown must wait for the searches
  // still running on the workers.
  std::mutex mu;
  std::condition_variable cv;
  int holding = 0;
  int sleeping = 0;
  bool open = false;
  std::atomic<int> running{0};
  const std::thread::id test_thread = std::this_thread::get_id();
  const auto search = [&](std::size_t q, std::size_t) {
    running.fetch_add(1);
    {
      std::unique_lock<std::mutex> lock(mu);
      if (std::this_thread::get_id() == test_thread) {
        open = true;
        cv.notify_all();
      } else if (q < 2) {
        ++holding;
        cv.notify_all();
        // Bounded, so a broken hand-off fails the test instead of hanging.
        cv.wait_for(lock, std::chrono::seconds(30), [&] { return open; });
      } else if (q >= 8) {
        ++sleeping;
        cv.notify_all();
      }
    }
    if (q >= 8) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    running.fetch_sub(1);
    if (q == 1 || q == 2) throw std::runtime_error("query " + std::to_string(q));
    search::MultiCtaResult r;
    r.run_len = q;
    return r;
  };
  const auto message_of = [](SearchAhead& ahead, std::size_t q) {
    try {
      ahead.take(q);
    } catch (const std::runtime_error& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  BuildExecutor exec(2);
  {
    SearchAhead ahead({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 6, search,
                      exec);
    {
      std::unique_lock<std::mutex> lock(mu);
      ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                              [&] { return holding == 2; }));
    }
    EXPECT_EQ(ahead.take(0).run_len, 0u);
    EXPECT_EQ(message_of(ahead, 2), "query 2");
    EXPECT_EQ(message_of(ahead, 1), "query 1");
    EXPECT_EQ(ahead.take(3).run_len, 3u);
    // Arrivals 4-11 are never taken; 8 and 9 are posted and sleep on a
    // worker when they run. Tear down while one does.
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(30),
                            [&] { return sleeping > 0; }));
  }
  EXPECT_EQ(running.load(), 0);
}

AlgasConfig tiny_engine_config() {
  AlgasConfig cfg;
  cfg.search.topk = 10;
  cfg.search.candidate_len = 64;
  cfg.search.beam_width = 2;
  cfg.search.offset_beam = 16;
  cfg.slots = 4;
  cfg.host_threads = 1;
  cfg.device = sim::DeviceProps::rtx_a6000();
  return cfg;
}

TEST(AlgasEngine, CompletesAllQueriesWithGoodRecall) {
  const auto& world = algas::testing::tiny_world();
  AlgasEngine engine(world.ds, world.nsw, tiny_engine_config());
  const auto rep = engine.run_closed_loop(100);
  EXPECT_EQ(rep.summary.queries, 100u);
  EXPECT_GT(rep.recall, 0.9);
  EXPECT_GT(rep.summary.throughput_qps, 0.0);
  EXPECT_GT(rep.summary.mean_service_us, 0.0);
  EXPECT_GT(rep.sim_events, 100u);
}

TEST(AlgasEngine, EveryQueryAnsweredExactlyOnce) {
  const auto& world = algas::testing::tiny_world();
  AlgasEngine engine(world.ds, world.nsw, tiny_engine_config());
  const auto rep = engine.run_closed_loop(60);
  std::set<std::size_t> seen;
  for (const auto& r : rep.collector.records()) {
    EXPECT_TRUE(seen.insert(r.query_index).second);
    EXPECT_GE(r.dispatch_ns, r.arrival_ns);
    EXPECT_GT(r.done_ns, r.dispatch_ns);
    EXPECT_FALSE(r.results.empty());
  }
  EXPECT_EQ(seen.size(), 60u);
}

TEST(AlgasEngine, OneGreedyCtaIsTheReferenceSearch) {
  // At n_parallel = 1 and beam_width = 1 a slot's one CTA starts at the
  // graph's entry point with a cleared visited set, so the DES engine and
  // greedy_search are one computation: query for query the same ids and
  // distance bits, from the same scored and expanded points.
  for (const Metric metric : {Metric::kL2, Metric::kCosine}) {
    const auto& world = algas::testing::tiny_world(metric);
    for (const Graph* g : {&world.nsw, &world.cagra}) {
      auto cfg = tiny_engine_config();
      cfg.n_parallel = 1;
      cfg.search.beam_width = 1;
      AlgasEngine engine(world.ds, *g, cfg);
      const auto rep = engine.run_closed_loop(60);
      ASSERT_EQ(rep.collector.records().size(), 60u);
      for (const auto& rec : rep.collector.records()) {
        ASSERT_TRUE(rec.served());
        const auto ref = search::greedy_search(
            world.ds, *g, cfg.cost, cfg.search,
            world.ds.query(rec.query_index));
        ASSERT_EQ(rec.results.size(), ref.topk.size());
        for (std::size_t i = 0; i < ref.topk.size(); ++i) {
          EXPECT_EQ(rec.results[i].id(), ref.topk[i].id())
              << "query " << rec.query_index << " position " << i;
          EXPECT_EQ(rec.results[i].dist, ref.topk[i].dist)
              << "query " << rec.query_index << " position " << i;
        }
        EXPECT_EQ(rec.scored_points, ref.stats.scored_points);
        EXPECT_EQ(rec.steps, ref.stats.expanded_points);
      }
    }
  }
}

TEST(AlgasEngine, DeterministicAcrossRuns) {
  const auto& world = algas::testing::tiny_world();
  AlgasEngine a(world.ds, world.nsw, tiny_engine_config());
  AlgasEngine b(world.ds, world.nsw, tiny_engine_config());
  const auto ra = a.run_closed_loop(40);
  const auto rb = b.run_closed_loop(40);
  EXPECT_DOUBLE_EQ(ra.summary.mean_service_us, rb.summary.mean_service_us);
  EXPECT_EQ(ra.sim_events, rb.sim_events);
  EXPECT_EQ(ra.elided_polls, rb.elided_polls);
  EXPECT_DOUBLE_EQ(ra.recall, rb.recall);
}

TEST(AlgasEngine, MirroringEliminatesPollTraffic) {
  const auto& world = algas::testing::tiny_world();
  auto cfg = tiny_engine_config();
  cfg.host_sync = HostSync::kPollMirrored;
  AlgasEngine mirrored(world.ds, world.nsw, cfg);
  cfg.host_sync = HostSync::kPollNaive;
  AlgasEngine naive(world.ds, world.nsw, cfg);
  const auto rm = mirrored.run_closed_loop(50);
  const auto rn = naive.run_closed_loop(50);
  // §V-A: local mirrors remove every cross-channel poll; write-throughs
  // remain in both modes.
  EXPECT_EQ(rm.pcie_state_poll_transactions, 0u);
  EXPECT_GT(rn.pcie_state_poll_transactions, 100u);
  EXPECT_GT(rm.pcie_state_write_transactions, 0u);
  // Cheaper polling lets the host react faster: service latency drops.
  EXPECT_LT(rm.summary.mean_service_us, rn.summary.mean_service_us);
  // Both deliver the same functional results.
  EXPECT_DOUBLE_EQ(rm.recall, rn.recall);
}

TEST(AlgasEngine, BlockingModeCompletesWithInterrupts) {
  const auto& world = algas::testing::tiny_world();
  auto cfg = tiny_engine_config();
  cfg.host_sync = HostSync::kBlocking;
  AlgasEngine engine(world.ds, world.nsw, cfg);
  const auto rep = engine.run_closed_loop(50);
  EXPECT_EQ(rep.summary.queries, 50u);
  EXPECT_GT(rep.recall, 0.9);
  // One completion interrupt per query, zero host poll traffic.
  EXPECT_EQ(rep.interrupts, 50u);
  EXPECT_EQ(rep.pcie_state_poll_transactions, 0u);
}

TEST(AlgasEngine, BlockingModeSlowerThanMirroredPolling) {
  // §V-A: "While using blocking mode can reduce PCIe I/O, its performance
  // is generally not as good as polling."
  const auto& world = algas::testing::tiny_world();
  auto cfg = tiny_engine_config();
  cfg.host_sync = HostSync::kPollMirrored;
  AlgasEngine polling(world.ds, world.nsw, cfg);
  cfg.host_sync = HostSync::kBlocking;
  AlgasEngine blocking(world.ds, world.nsw, cfg);
  const auto rp = polling.run_closed_loop(50);
  const auto rb = blocking.run_closed_loop(50);
  EXPECT_LT(rp.summary.mean_service_us, rb.summary.mean_service_us);
  // Blocking produces less channel traffic than even mirrored polling
  // (no write-throughs from the device side).
  EXPECT_LE(rb.pcie_state_transactions, rp.pcie_state_transactions);
  EXPECT_DOUBLE_EQ(rp.recall, rb.recall);  // functionally identical
}

TEST(AlgasEngine, BlockingModeOpenLoop) {
  const auto& world = algas::testing::tiny_world();
  auto cfg = tiny_engine_config();
  cfg.host_sync = HostSync::kBlocking;
  AlgasEngine engine(world.ds, world.nsw, cfg);
  std::vector<PendingQuery> arrivals;
  for (std::size_t i = 0; i < 20; ++i) {
    arrivals.push_back({i, static_cast<double>(i) * 100000.0});
  }
  const auto rep = engine.run(arrivals);
  EXPECT_EQ(rep.summary.queries, 20u);
  for (const auto& r : rep.collector.records()) {
    EXPECT_GE(r.dispatch_ns, r.arrival_ns);
  }
}

TEST(AlgasEngine, HostSyncNames) {
  EXPECT_STREQ(host_sync_name(HostSync::kPollNaive), "poll-naive");
  EXPECT_STREQ(host_sync_name(HostSync::kPollMirrored), "poll-mirrored");
  EXPECT_STREQ(host_sync_name(HostSync::kBlocking), "blocking");
}

TEST(AlgasEngine, MultipleHostThreadsStillComplete) {
  const auto& world = algas::testing::tiny_world();
  auto cfg = tiny_engine_config();
  cfg.slots = 8;
  cfg.host_threads = 4;
  AlgasEngine engine(world.ds, world.nsw, cfg);
  const auto rep = engine.run_closed_loop(64);
  EXPECT_EQ(rep.summary.queries, 64u);
  EXPECT_GT(rep.recall, 0.9);
}

TEST(AlgasEngine, OpenLoopRespectsArrivals) {
  const auto& world = algas::testing::tiny_world();
  AlgasEngine engine(world.ds, world.nsw, tiny_engine_config());
  std::vector<PendingQuery> arrivals;
  for (std::size_t i = 0; i < 20; ++i) {
    arrivals.push_back({i, static_cast<double>(i) * 50000.0});
  }
  const auto rep = engine.run(arrivals);
  EXPECT_EQ(rep.summary.queries, 20u);
  for (const auto& r : rep.collector.records()) {
    EXPECT_GE(r.dispatch_ns, r.arrival_ns);
  }
}

TEST(AlgasEngine, RejectsUntunableConfig) {
  const auto& world = algas::testing::tiny_world();
  auto cfg = tiny_engine_config();
  cfg.device = sim::DeviceProps::tiny_test_device();
  cfg.slots = 64;  // 64 > 16 resident blocks
  EXPECT_THROW(AlgasEngine(world.ds, world.nsw, cfg),
               std::invalid_argument);
}

TEST(AlgasEngine, RejectsBadArrivalsBeforeAnythingRuns) {
  // A query index past the dataset's queries, a non-finite or decreasing
  // arrival instant and a NaN deadline all throw from the run, on the
  // pre-loaded (unbounded) path and through bounded admission, before the
  // run traces anything.
  const auto& world = algas::testing::tiny_world();
  const std::size_t nq = world.ds.num_queries();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<PendingQuery>> bad = {
      {{0, 0.0}, {nq, 10.0}},
      {{0, 0.0}, {1, nan}},
      {{0, 0.0}, {1, inf}},
      {{0, 0.0}, {1, -inf}},
      {{0, 50.0}, {1, 10.0}},
      {{0, 0.0}, {1, 10.0, nan}},
  };
  for (bool bounded : {false, true}) {
    sim::Tracer tracer;
    auto cfg = tiny_engine_config();
    cfg.tracer = &tracer;
    if (bounded) cfg.admission.capacity = 8;
    AlgasEngine engine(world.ds, world.nsw, cfg);
    for (std::size_t i = 0; i < bad.size(); ++i) {
      EXPECT_THROW(engine.run(bad[i]), std::invalid_argument)
          << "case " << i << (bounded ? ", bounded" : ", unbounded");
    }
    EXPECT_EQ(tracer.events_recorded(), 0u);
    // The boundary values themselves are fine: the last query, equal
    // arrival instants and an infinite deadline.
    const auto rep = engine.run({{nq - 1, 5.0}, {0, 5.0, inf}});
    EXPECT_EQ(rep.summary.queries, 2u);
  }
}

TEST(AlgasEngine, UtilizationIsSane) {
  const auto& world = algas::testing::tiny_world();
  AlgasEngine engine(world.ds, world.nsw, tiny_engine_config());
  const auto rep = engine.run_closed_loop(80);
  EXPECT_GT(rep.gpu_utilization, 0.0);
  EXPECT_LE(rep.gpu_utilization, 1.0);
}

// ---------------- engine x SimCheck ----------------

TEST(AlgasEngine, CheckedRunIsCleanInEverySyncMode) {
  // The full engine, run under the complete verification stack: every slot
  // protocol, channel-conservation, drain, and budget invariant holds in
  // all three §V-A synchronization modes.
  const auto& world = algas::testing::tiny_world();
  for (HostSync mode : {HostSync::kPollNaive, HostSync::kPollMirrored,
                        HostSync::kBlocking}) {
    sim::SimCheck check;
    auto cfg = tiny_engine_config();
    cfg.host_sync = mode;
    cfg.checker = &check;
    AlgasEngine engine(world.ds, world.nsw, cfg);
    const auto rep = engine.run_closed_loop(40);
    EXPECT_EQ(rep.summary.queries, 40u) << host_sync_name(mode);
    EXPECT_GT(rep.simcheck_checks, 1000u)
        << host_sync_name(mode) << ": checker silently no-opped";
    EXPECT_EQ(check.violations(), 0u) << host_sync_name(mode);
    EXPECT_GT(check.events_traced(), 0u) << host_sync_name(mode);
  }
}

TEST(AlgasEngine, CheckerNeverPerturbsVirtualTime) {
  // SimCheck is a pure observer: checked and unchecked runs must agree on
  // every virtual-time quantity bit for bit, in every sync mode.
  const auto& world = algas::testing::tiny_world();
  for (HostSync mode : {HostSync::kPollNaive, HostSync::kPollMirrored,
                        HostSync::kBlocking}) {
    auto cfg = tiny_engine_config();
    cfg.host_sync = mode;
    AlgasEngine plain(world.ds, world.nsw, cfg);
    sim::SimCheck check;
    cfg.checker = &check;
    AlgasEngine checked(world.ds, world.nsw, cfg);
    const auto rp = plain.run_closed_loop(30);
    const auto rc = checked.run_closed_loop(30);
    EXPECT_DOUBLE_EQ(rp.summary.mean_service_us, rc.summary.mean_service_us)
        << host_sync_name(mode);
    EXPECT_DOUBLE_EQ(rp.summary.throughput_qps, rc.summary.throughput_qps)
        << host_sync_name(mode);
    EXPECT_EQ(rp.sim_events, rc.sim_events) << host_sync_name(mode);
    EXPECT_EQ(rp.elided_polls, rc.elided_polls) << host_sync_name(mode);
    EXPECT_DOUBLE_EQ(rp.recall, rc.recall) << host_sync_name(mode);
    EXPECT_EQ(rp.pcie_transactions, rc.pcie_transactions)
        << host_sync_name(mode);
    // Under a default-on build the "plain" engine self-checks too; the
    // virtual-time equalities above are the real assertion either way.
    if (!sim::simcheck_default_enabled()) {
      EXPECT_EQ(rp.simcheck_checks, 0u);
    }
    EXPECT_GT(rc.simcheck_checks, 0u);
  }
}

TEST(AlgasEngine, OneCheckerAuditsManyRuns) {
  const auto& world = algas::testing::tiny_world();
  sim::SimCheck check;
  auto cfg = tiny_engine_config();
  cfg.checker = &check;
  AlgasEngine engine(world.ds, world.nsw, cfg);
  const auto r1 = engine.run_closed_loop(20);
  const auto r2 = engine.run_closed_loop(20);
  EXPECT_GT(r1.simcheck_checks, 0u);
  EXPECT_GT(r2.simcheck_checks, 0u);
  EXPECT_EQ(check.violations(), 0u);
  EXPECT_EQ(check.run_label(), std::string("algas:poll-mirrored"));
}

}  // namespace
}  // namespace algas::core
