#include "probe.h"

#include <cstdio>
#include <unordered_map>

namespace perfbench {

bool WriteChromeTrace(const std::string& path, const ProbeSet& probes,
                      int64_t origin_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  auto us = [origin_ns](int64_t ns) {
    return static_cast<double>(ns - origin_ns) / 1e3;
  };
  // Where each cause id was recorded, so its flow can start on that thread.
  struct Origin {
    int tid;
    int64_t ts_ns;
  };
  std::unordered_map<int64_t, Origin> origins;
  for (const auto& p : probes.all()) {
    for (const Span& s : p->spans) {
      if (s.id != 0) origins[s.id] = Origin{p->tid, s.end_ns};
    }
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  bool first = true;
  auto sep = [&] {
    if (!first) std::fprintf(f, ",\n");
    first = false;
  };
  for (const auto& p : probes.all()) {
    sep();
    std::fprintf(f,
                 "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
                 "\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
                 p->tid, p->name.c_str());
    for (const Span& s : p->spans) {
      sep();
      std::fprintf(f,
                   "{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                   "\"cause\":%lld}}",
                   s.name, p->tid, us(s.start_ns),
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<long long>(s.id),
                   static_cast<long long>(s.cause));
      if (s.cause == 0) continue;
      auto it = origins.find(s.cause);
      if (it == origins.end() || it->second.tid == p->tid) continue;
      // Flow from the end of the causing span to the start of this one.
      sep();
      std::fprintf(f,
                   "{\"ph\":\"s\",\"name\":\"cause\",\"cat\":\"cause\","
                   "\"id\":%lld,\"pid\":1,\"tid\":%d,\"ts\":%.3f}",
                   static_cast<long long>(s.cause), it->second.tid,
                   us(it->second.ts_ns) - 0.001);
      sep();
      std::fprintf(f,
                   "{\"ph\":\"f\",\"bp\":\"e\",\"name\":\"cause\","
                   "\"cat\":\"cause\",\"id\":%lld,\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f}",
                   static_cast<long long>(s.cause), p->tid, us(s.start_ns));
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
