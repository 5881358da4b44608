#include "simgpu/trace.hpp"

#include <cstdio>
#include <fstream>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/env.hpp"

namespace algas::sim {

namespace {

/// JSON string escaping (quotes, backslashes, control characters).
std::string escaped(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Nanoseconds -> the format's microsecond unit, at fixed ns precision so
/// identical runs serialize byte-identically.
std::string fmt_us(SimTime t_ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", t_ns / 1000.0);
  return buf;
}

std::string fmt_value(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

TraceArgs& TraceArgs::add(const std::string& key, const std::string& v) {
  std::string quoted = "\"";
  quoted += escaped(v);
  quoted += '"';
  kv_.emplace_back(key, std::move(quoted));
  return *this;
}

TraceArgs& TraceArgs::add(const std::string& key, const char* v) {
  return add(key, std::string(v));
}

TraceArgs& TraceArgs::add(const std::string& key, double v) {
  kv_.emplace_back(key, fmt_value(v));
  return *this;
}

TraceArgs& TraceArgs::add(const std::string& key, std::uint64_t v) {
  kv_.emplace_back(key, std::to_string(v));
  return *this;
}

int Tracer::begin_process(const std::string& label) {
  const int pid = ++next_pid_;
  next_tid_.resize(static_cast<std::size_t>(pid) + 1, 0);
  TraceEventRec e;
  e.ph = TracePhase::kMetadata;
  e.pid = pid;
  e.name = "process_name";
  e.args.add("name", label);
  events_.push_back(std::move(e));
  TraceEventRec sort;
  sort.ph = TracePhase::kMetadata;
  sort.pid = pid;
  sort.name = "process_sort_index";
  sort.args.add("sort_index", static_cast<std::uint64_t>(pid));
  events_.push_back(std::move(sort));
  return pid;
}

int Tracer::lane(int pid, const std::string& name) {
  const int tid = next_tid_.at(static_cast<std::size_t>(pid))++;
  TraceEventRec e;
  e.ph = TracePhase::kMetadata;
  e.pid = pid;
  e.tid = tid;
  e.name = "thread_name";
  e.args.add("name", name);
  events_.push_back(std::move(e));
  TraceEventRec sort;
  sort.ph = TracePhase::kMetadata;
  sort.pid = pid;
  sort.tid = tid;
  sort.name = "thread_sort_index";
  sort.args.add("sort_index", static_cast<std::uint64_t>(tid));
  events_.push_back(std::move(sort));
  return tid;
}

void Tracer::complete(int pid, int tid, const std::string& name,
                      SimTime start_ns, SimTime dur_ns, TraceArgs args,
                      const std::string& cat) {
  TraceEventRec e;
  e.ph = TracePhase::kComplete;
  e.pid = pid;
  e.tid = tid;
  e.ts_ns = start_ns;
  e.dur_ns = dur_ns;
  e.name = name;
  e.cat = cat;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void Tracer::instant(int pid, int tid, const std::string& name, SimTime t_ns,
                     TraceArgs args, const std::string& cat) {
  TraceEventRec e;
  e.ph = TracePhase::kInstant;
  e.pid = pid;
  e.tid = tid;
  e.ts_ns = t_ns;
  e.name = name;
  e.cat = cat;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void Tracer::counter(int pid, const std::string& name, SimTime t_ns,
                     double value) {
  TraceEventRec e;
  e.ph = TracePhase::kCounter;
  e.pid = pid;
  e.ts_ns = t_ns;
  e.name = name;
  e.cat = "counter";
  e.args.add("value", value);
  events_.push_back(std::move(e));
}

void Tracer::flow_begin(int pid, int tid, const std::string& name,
                        std::uint64_t id, SimTime t_ns) {
  TraceEventRec e;
  e.ph = TracePhase::kFlowBegin;
  e.pid = pid;
  e.tid = tid;
  e.ts_ns = t_ns;
  e.flow_id = id;
  e.name = name;
  e.cat = "flow";
  events_.push_back(std::move(e));
}

void Tracer::flow_end(int pid, int tid, const std::string& name,
                      std::uint64_t id, SimTime t_ns) {
  TraceEventRec e;
  e.ph = TracePhase::kFlowEnd;
  e.pid = pid;
  e.tid = tid;
  e.ts_ns = t_ns;
  e.flow_id = id;
  e.name = name;
  e.cat = "flow";
  events_.push_back(std::move(e));
}

void Tracer::write_json(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& e : events_) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "{\"ph\":\"" << static_cast<char>(e.ph) << "\",\"pid\":" << e.pid
       << ",\"tid\":" << e.tid << ",\"name\":\"" << escaped(e.name) << "\"";
    if (e.ph != TracePhase::kMetadata) {
      os << ",\"ts\":" << fmt_us(e.ts_ns);
      if (!e.cat.empty()) os << ",\"cat\":\"" << escaped(e.cat) << "\"";
    }
    switch (e.ph) {
      case TracePhase::kComplete:
        os << ",\"dur\":" << fmt_us(e.dur_ns);
        break;
      case TracePhase::kInstant:
        os << ",\"s\":\"t\"";
        break;
      case TracePhase::kFlowBegin:
      case TracePhase::kFlowEnd:
        // Bind to the slice enclosing the timestamp, not the next slice.
        os << ",\"id\":" << e.flow_id << ",\"bp\":\"e\"";
        break;
      case TracePhase::kCounter:
      case TracePhase::kMetadata:
        break;
    }
    if (!e.args.empty()) {
      os << ",\"args\":{";
      bool first_arg = true;
      for (const auto& [k, v] : e.args.items()) {
        if (!first_arg) os << ",";
        first_arg = false;
        os << "\"" << escaped(k) << "\":" << v;
      }
      os << "}";
    }
    os << "}";
  }
  os << "\n],\"displayTimeUnit\":\"ns\"}\n";
}

void Tracer::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("SimTrace: cannot open trace file " + path);
  }
  write_json(out);
  out.flush();
  if (!out) {
    throw std::runtime_error("SimTrace: failed writing trace file " + path);
  }
}

void Tracer::clear() {
  events_.clear();
  next_pid_ = 0;
  next_tid_.clear();
  next_flow_id_ = 0;
}

const std::string& trace_default_path() {
  static const std::string path = RuntimeOptions::from_env().trace_path;
  return path;
}

Tracer* default_tracer() {
  static std::unique_ptr<Tracer> tracer =
      trace_default_path().empty() ? nullptr : std::make_unique<Tracer>();
  return tracer.get();
}

}  // namespace algas::sim
