#include "trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

uint64_t MonoNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

int32_t Tracer::Begin(const std::string& name) {
  if (!enabled_) return -1;
  const auto index = static_cast<int32_t>(spans_.size());
  spans_.push_back({name, MonoNanos(), 0, open_.empty() ? -1 : open_.back()});
  open_.push_back(index);
  return index;
}

void Tracer::End(int32_t index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = MonoNanos();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> durations;
  for (const Span& span : spans_) {
    if (span.name == name && span.end_ns >= span.start_ns && span.end_ns != 0) {
      durations.push_back(static_cast<double>(span.end_ns - span.start_ns) /
                          1e6);
    }
  }
  return durations;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%llu,"
                 "\"end_ns\":%llu,\"parent\":%d}\n",
                 i, span.name.c_str(),
                 static_cast<unsigned long long>(span.start_ns),
                 static_cast<unsigned long long>(span.end_ns), span.parent);
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
