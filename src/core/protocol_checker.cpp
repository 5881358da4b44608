#include "core/protocol_checker.hpp"

#include <cassert>
#include <sstream>

#include "core/state_sync.hpp"

namespace algas::core {

namespace {
/// Slack for comparing accumulated double timestamps.
constexpr double kTimeSlackNs = 1e-6;
}  // namespace

ProtocolChecker::ProtocolChecker(sim::SimCheck* check, StateSync* sync,
                                 sim::Channel* channel)
    : check_(check),
      sync_(sync),
      channel_(channel),
      words_(sync->slots() * sync->ctas_per_slot()),
      base_polls_(channel->counters(sim::Xfer::kStatePoll).transactions),
      base_writes_(channel->counters(sim::Xfer::kStateWrite).transactions) {
  assert(check_ != nullptr);
  check_->set_drain_hook([this](SimTime t) { on_drain(t); });
}

ProtocolChecker::~ProtocolChecker() { check_->set_drain_hook(nullptr); }

std::string ProtocolChecker::word_key(std::size_t slot, std::size_t cta) {
  std::ostringstream out;
  out << "slot" << slot << ".cta" << cta;
  return out.str();
}

ProtocolChecker::WordState& ProtocolChecker::word(std::size_t slot,
                                                  std::size_t cta) {
  return words_[slot * sync_->ctas_per_slot() + cta];
}

void ProtocolChecker::check_side_order(Side side, SimTime t, std::size_t slot,
                                       std::size_t cta, const char* op) {
  check_->count_check();
  WordState& w = word(slot, cta);
  SimTime& last = side == Side::kHost ? w.last_host_ns : w.last_device_ns;
  if (t + kTimeSlackNs < last) {
    const std::string key = word_key(slot, cta);
    std::ostringstream msg;
    msg << "happens-before violation on " << key << ": " << side_name(side)
        << " " << op << " stamped t=" << t << "ns precedes the side's "
        << "previous access at t=" << last << "ns — two " << side_name(side)
        << " actors are touching the same state word out of virtual-time "
        << "order";
    check_->fail("happens-before", key, t, msg.str());
  }
  last = t;
}

void ProtocolChecker::audit_channel(SimTime t, std::size_t slot,
                                    std::size_t cta, const char* op) {
  check_->count_check();
  const std::uint64_t polls =
      channel_->counters(sim::Xfer::kStatePoll).transactions - base_polls_;
  const std::uint64_t writes =
      channel_->counters(sim::Xfer::kStateWrite).transactions - base_writes_;
  if (polls == expected_polls_ && writes == expected_writes_) return;

  const std::string key = word_key(slot, cta);
  std::ostringstream msg;
  msg << "channel-conservation violation after " << op << " on " << key
      << ": ";
  if (polls != expected_polls_) {
    msg << "state-poll transactions read " << polls << ", expected "
        << expected_polls_
        << (polls > expected_polls_
                ? " (a mirrored-mode poll generated channel traffic)"
                : " (a naive-mode poll skipped the channel)");
  } else {
    msg << "state-write transactions read " << writes << ", expected "
        << expected_writes_
        << (writes > expected_writes_
                ? " (a write-through was issued more than once)"
                : " (a state change skipped its write-through)");
  }
  check_->fail("channel-conservation", key, t, msg.str());
}

void ProtocolChecker::on_read(Side side, SimTime t, std::size_t slot,
                              std::size_t cta, SlotState observed) {
  check_side_order(side, t, slot, cta, "read");
  // §V-A conservation: naive host polls cross the channel exactly once;
  // mirrored host polls and all device polls stay local.
  if (side == Side::kHost && !sync_->mirrored()) ++expected_polls_;
  audit_channel(t, slot, cta, "read");

  // Edge-triggered observation trace: record only state changes seen, so a
  // word's ring keeps its transition history instead of thousands of
  // identical polls.
  WordState& w = word(slot, cta);
  int& seen = side == Side::kHost ? w.host_seen : w.device_seen;
  if (seen != static_cast<int>(observed)) {
    seen = static_cast<int>(observed);
    check_->record(word_key(slot, cta), t,
                   std::string(side_name(side)) + " observed " +
                       slot_state_name(observed));
  }
}

void ProtocolChecker::pre_write(Side side, SimTime t, std::size_t slot,
                                std::size_t cta, SlotState from,
                                SlotState to) {
  const std::string key = word_key(slot, cta);

  // Fig 9 single-writer ownership: only the owner of the current state may
  // transition the word. A write from the other side is a race even if the
  // resulting transition would be legal in Fig 5.
  check_->count_check();
  const Side owner = state_owner(from);
  if (owner != side) {
    std::ostringstream msg;
    msg << "Fig 9 ownership violation: " << side_name(side) << " wrote "
        << key << " while its state " << slot_state_name(from)
        << " is owned by " << side_name(owner) << " (attempted "
        << slot_state_name(from) << " -> " << slot_state_name(to) << ")";
    check_->fail("ownership", key, t, msg.str());
  }

  // Fig 5 transition legality.
  check_->count_check();
  if (!is_legal_transition(from, to)) {
    std::ostringstream msg;
    msg << "illegal " << side_name(side) << " transition "
        << slot_state_name(from) << " -> " << slot_state_name(to) << " on "
        << key << " (Fig 5 permits None->Work, Work->Finish, Finish->Done, "
        << "Done->Work, Done->Quit, None->Quit; the deadline extension adds "
        << "Finish->Expired, Expired->Work, Expired->Quit)";
    check_->fail("illegal-transition", key, t, msg.str());
  }

  check_side_order(side, t, slot, cta, "write");
}

void ProtocolChecker::post_write(Side side, SimTime t, std::size_t slot,
                                 std::size_t cta, SlotState to) {
  ++writes_observed_;
  // Every host write crosses the channel once (remote state in naive mode,
  // mirror write-through in mirrored mode); device writes cross only when
  // mirrored (§V-A).
  if (side == Side::kHost || sync_->mirrored()) ++expected_writes_;
  audit_channel(t, slot, cta, "write");

  WordState& w = word(slot, cta);
  w.last_write_ns = t;
  w.last_writer = side;
  int& seen = side == Side::kHost ? w.host_seen : w.device_seen;
  seen = static_cast<int>(to);
  check_->record(word_key(slot, cta), t,
                 std::string(side_name(side)) + " wrote " +
                     slot_state_name(to));
}

void ProtocolChecker::on_drain(SimTime t) {
  check_->count_check();
  if (!expect_full_drain_) return;

  std::vector<std::pair<std::size_t, std::size_t>> stuck;
  for (std::size_t s = 0; s < sync_->slots(); ++s) {
    for (std::size_t c = 0; c < sync_->ctas_per_slot(); ++c) {
      if (sync_->peek(s, c) != SlotState::kQuit) stuck.emplace_back(s, c);
    }
  }
  if (stuck.empty()) return;

  std::ostringstream msg;
  msg << "event queue drained prematurely: " << stuck.size()
      << " state word(s) never reached Quit;";
  for (const auto& [s, c] : stuck) {
    const WordState& w = word(s, c);
    msg << "\n  " << word_key(s, c)
        << ": state=" << slot_state_name(sync_->peek(s, c));
    if (w.last_writer != Side::kNone) {
      msg << ", last written by " << side_name(w.last_writer) << " at t="
          << w.last_write_ns << "ns";
    } else {
      msg << ", never written";
    }
    msg << "\n" << check_->trace_dump(word_key(s, c));
  }
  check_->fail("deadlock", std::string(), t, msg.str());
}

void ProtocolChecker::finalize(SimTime t) {
  // Closing conservation balance.
  audit_channel(t, 0, 0, "finalize");
  // Parity: StateSync counted the same number of transitions we audited.
  check_->count_check();
  if (sync_->state_transitions() != writes_observed_) {
    std::ostringstream msg;
    msg << "transition-count parity broken: StateSync recorded "
        << sync_->state_transitions() << " transitions but the checker "
        << "observed " << writes_observed_
        << " — a state write bypassed the checked path";
    check_->fail("channel-conservation", std::string(), t, msg.str());
  }
}

}  // namespace algas::core
