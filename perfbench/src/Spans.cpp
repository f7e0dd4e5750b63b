//===- perfbench/src/Spans.cpp - Benchmark-side span recorder -------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include "support/Format.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace perfbench {

namespace {
thread_local bool ThreadOn = true;
thread_local uint64_t CurrentSpan = 0;

uint32_t threadNumber() {
  static std::mutex Mu;
  static std::map<std::thread::id, uint32_t> Numbers;
  thread_local uint32_t Mine = [] {
    std::lock_guard<std::mutex> Lock(Mu);
    return Numbers.emplace(std::this_thread::get_id(), Numbers.size() + 1)
        .first->second;
  }();
  return Mine;
}
} // namespace

SpanLog &SpanLog::instance() {
  static SpanLog Log;
  return Log;
}

void SpanLog::setThreadEnabled(bool On) { ThreadOn = On; }

uint64_t SpanLog::nowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

uint64_t SpanLog::begin(uint64_t &ParentOut) {
  uint64_t Id;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Id = ++NextId;
  }
  ParentOut = CurrentSpan;
  CurrentSpan = Id;
  return Id;
}

void SpanLog::end(uint64_t Id, const char *Name, uint64_t BeginNs,
                  uint64_t Parent, uint64_t Op) {
  uint64_t EndNs = nowNs();
  CurrentSpan = Parent;
  std::lock_guard<std::mutex> Lock(Mu);
  Records.push_back({Name, BeginNs, EndNs, Id, Parent, Op, threadNumber()});
}

std::vector<SpanRecord> SpanLog::spans() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Records;
}

std::map<std::string, uint64_t> SpanLog::selfTimes() const {
  std::vector<SpanRecord> All = spans();
  std::map<uint64_t, uint64_t> ChildNs;
  for (const SpanRecord &S : All)
    if (S.Parent)
      ChildNs[S.Parent] += S.EndNs - S.BeginNs;
  std::map<std::string, uint64_t> Self;
  for (const SpanRecord &S : All) {
    uint64_t Dur = S.EndNs - S.BeginNs, Kids = ChildNs[S.Id];
    Self[S.Name] += Dur > Kids ? Dur - Kids : 0;
  }
  return Self;
}

std::string SpanLog::chromeTraceJson() const {
  std::vector<SpanRecord> All = spans();
  std::sort(All.begin(), All.end(),
            [](const SpanRecord &A, const SpanRecord &B) {
              return A.BeginNs < B.BeginNs;
            });
  uint64_t Origin = All.empty() ? 0 : All.front().BeginNs;
  std::string Out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t I = 0; I != All.size(); ++I) {
    const SpanRecord &S = All[I];
    std::string Name = S.Name, Layer = Name.substr(0, Name.find('.'));
    Out += gprof::format(
        "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
        "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
        "\"parent\":%llu,\"op\":%llu}}",
        I ? "," : "", S.Name, Layer.c_str(), S.Thread,
        double(S.BeginNs - Origin) / 1e3, double(S.EndNs - S.BeginNs) / 1e3,
        (unsigned long long)S.Id, (unsigned long long)S.Parent,
        (unsigned long long)S.Op);
  }
  Out += "\n]}\n";
  return Out;
}

Span::Span(const char *Name, uint64_t Op) : Name(Name), Op(Op) {
  SpanLog &L = SpanLog::instance();
  if (!L.enabled() || !ThreadOn)
    return;
  Id = L.begin(Parent);
  BeginNs = SpanLog::nowNs();
}

Span::~Span() {
  if (Id)
    SpanLog::instance().end(Id, Name, BeginNs, Parent, Op);
}

} // namespace perfbench
