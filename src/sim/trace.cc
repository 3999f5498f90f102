#include "sim/trace.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>

namespace lfstx {

namespace {

// Process-wide registry of trace-file sinks. A bench sweep builds one
// machine per configuration; with a plain fopen("w") per machine the last
// one would clobber every earlier trace. Instead the first opener of a
// path truncates it and every later opener appends through the same
// handle, tagged with its attachment order. Handles live for the process
// lifetime (flushed whenever a tracer detaches) so that sequentially
// constructed machines keep appending rather than re-truncating.
struct SharedSink {
  FILE* file = nullptr;
  uint32_t attaches = 0;  // machine tags handed out so far
};

std::mutex& SinkMutex() {
  static std::mutex mu;
  return mu;
}

std::map<std::string, SharedSink>& SinkRegistry() {
  static std::map<std::string, SharedSink> reg;
  return reg;
}

struct CatName {
  TraceCat cat;
  const char* name;
};

constexpr CatName kCatNames[] = {
    {TraceCat::kDisk, "disk"},           {TraceCat::kCache, "cache"},
    {TraceCat::kLfs, "lfs"},             {TraceCat::kCleaner, "cleaner"},
    {TraceCat::kCheckpoint, "checkpoint"}, {TraceCat::kRecovery, "recovery"},
    {TraceCat::kTxn, "txn"},             {TraceCat::kLock, "lock"},
    {TraceCat::kLog, "log"},             {TraceCat::kSync, "sync"},
    {TraceCat::kCheck, "check"},         {TraceCat::kProf, "prof"},
    {TraceCat::kBlame, "blame"},         {TraceCat::kOpenLoop, "openloop"},
    {TraceCat::kLogEcon, "logecon"},
};

/// Index of a category's bit (for the flight rings).
int CatIndex(TraceCat c) {
  uint32_t bits = static_cast<uint32_t>(c);
  int i = 0;
  while (bits > 1) {
    bits >>= 1;
    i++;
  }
  return i;
}

void AppendEscaped(std::string* out, const char* s) {
  for (; *s; s++) {
    char c = *s;
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      snprintf(buf, sizeof(buf), "\\u%04x", c);
      *out += buf;
    } else {
      out->push_back(c);
    }
  }
}

}  // namespace

Tracer::~Tracer() { ReleaseSink(); }

void Tracer::ReleaseSink() {
  if (file_ == nullptr) return;
  std::lock_guard<std::mutex> lock(SinkMutex());
  // The handle stays open (and stays in the registry) so the next machine
  // in this process appends; just make this tracer's events durable.
  fflush(file_);
  file_ = nullptr;
  path_.clear();
  machine_ = 0;
}

const char* Tracer::CategoryName(TraceCat c) {
  for (const auto& e : kCatNames) {
    if (e.cat == c) return e.name;
  }
  return "?";
}

Status Tracer::EnableSpec(const std::string& spec) {
  uint32_t mask = 0;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string tok = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (tok.empty()) continue;
    if (tok == "all") {
      mask = kTraceAll;
      continue;
    }
    bool found = false;
    for (const auto& e : kCatNames) {
      if (tok == e.name) {
        mask |= static_cast<uint32_t>(e.cat);
        found = true;
        break;
      }
    }
    if (!found) {
      return Status::InvalidArgument("unknown trace category: " + tok);
    }
  }
  mask_ = mask;
  return Status::OK();
}

Status Tracer::OpenFile(const std::string& path) {
  ReleaseSink();
  std::lock_guard<std::mutex> lock(SinkMutex());
  SharedSink& sink = SinkRegistry()[path];
  if (sink.file == nullptr) {
    sink.file = fopen(path.c_str(), "w");
    if (sink.file == nullptr) {
      SinkRegistry().erase(path);
      return Status::IOError("cannot open trace file " + path);
    }
  }
  file_ = sink.file;
  path_ = path;
  machine_ = ++sink.attaches;
  return Status::OK();
}

void Tracer::EnableFlightRecorder(size_t per_cat) {
  flight_per_cat_ = per_cat;
  flight_mask_ = per_cat > 0 ? kTraceAll : 0;
  flight_.clear();
  if (per_cat > 0) {
    flight_.resize(sizeof(kCatNames) / sizeof(kCatNames[0]));
  }
}

void Tracer::DumpFlight(FILE* out) const {
  if (flight_mask_ == 0) return;
  // Merge the per-category rings back into emission order.
  std::vector<const std::pair<uint64_t, std::string>*> all;
  for (const auto& ring : flight_) {
    for (const auto& e : ring) all.push_back(&e);
  }
  std::sort(all.begin(), all.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  fprintf(out, "[flight] last %zu events (<= %zu per category):\n",
          all.size(), flight_per_cat_);
  for (const auto* e : all) {
    fwrite(e->second.data(), 1, e->second.size(), out);
  }
}

void Tracer::Emit(TraceCat c, const char* event,
                  std::initializer_list<TraceField> fields) {
  std::string line;
  line.reserve(128);
  line += "{\"t\":";
  char buf[64];
  snprintf(buf, sizeof(buf), "%llu",
           static_cast<unsigned long long>(clock_ ? *clock_ : 0));
  line += buf;
  // Machine tag only applies to the shared file sink; capture sinks are
  // single-machine by construction and must stay byte-stable across runs.
  if (machine_ != 0 && capture_ == nullptr) {
    snprintf(buf, sizeof(buf), ",\"m\":%u", machine_);
    line += buf;
  }
  line += ",\"cat\":\"";
  line += CategoryName(c);
  line += "\",\"ev\":\"";
  AppendEscaped(&line, event);
  line += "\"";
  for (const TraceField& f : fields) {
    line += ",\"";
    AppendEscaped(&line, f.key);
    line += "\":";
    switch (f.kind) {
      case TraceField::Kind::kU64:
        snprintf(buf, sizeof(buf), "%llu",
                 static_cast<unsigned long long>(f.u));
        line += buf;
        break;
      case TraceField::Kind::kI64:
        snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(f.i));
        line += buf;
        break;
      case TraceField::Kind::kF64:
        if (std::isfinite(f.f)) {
          snprintf(buf, sizeof(buf), "%.6g", f.f);
        } else {
          snprintf(buf, sizeof(buf), "0");
        }
        line += buf;
        break;
      case TraceField::Kind::kStr:
        line += "\"";
        AppendEscaped(&line, f.s != nullptr ? f.s : "");
        line += "\"";
        break;
    }
  }
  line += "}\n";
  if ((flight_mask_ & static_cast<uint32_t>(c)) != 0) {
    auto& ring = flight_[CatIndex(c)];
    if (ring.size() >= flight_per_cat_) ring.pop_front();
    ring.emplace_back(flight_seq_++, line);
  }
  // User sinks (and the emitted counter) see only user-enabled categories;
  // flight-only events must not perturb a capture test's byte-exact output.
  if ((mask_ & static_cast<uint32_t>(c)) == 0) return;
  emitted_++;
  if (capture_ != nullptr) {
    *capture_ += line;
  } else {
    fwrite(line.data(), 1, line.size(), file_ != nullptr ? file_ : stderr);
  }
}

}  // namespace lfstx
