//===- support/ThreadPool.cpp ---------------------------------------------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/Format.h"
#include "support/Telemetry.h"

#include <algorithm>

using namespace gprof;

ThreadPool::ThreadPool(unsigned NumThreads) : Width(NumThreads) {
  if (Width == 0)
    Width = std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    ShuttingDown = true;
  }
  WorkAvailable.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::enqueue(std::function<void()> Job) {
  // Jobs queued and the queue's high-water mark are scheduling facts
  // (they depend on pool width), so they are telemetry *gauges* — see
  // docs/TELEMETRY.md for the counter/gauge split.
  static telemetry::Metric &JobsQueued =
      telemetry::gauge("threadpool.jobs.queued");
  static telemetry::Metric &MaxDepth =
      telemetry::gauge("threadpool.queue.max_depth");
  static telemetry::Metric &Spawned =
      telemetry::gauge("threadpool.workers_spawned");
  size_t Depth;
  bool Started = false;
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    if (Workers.empty()) {
      Workers.reserve(Width);
      for (unsigned I = 0; I != Width; ++I)
        Workers.emplace_back([this, I] { workerLoop(I); });
      Started = true;
    }
    Queue.push_back(std::move(Job));
    Depth = Queue.size();
  }
  if (Started)
    Spawned.add(Width);
  JobsQueued.add(1);
  MaxDepth.max(Depth);
  WorkAvailable.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> Lock(Mutex);
  AllIdle.wait(Lock, [this] { return Queue.empty() && ActiveJobs == 0; });
}

void ThreadPool::workerLoop(unsigned WorkerIndex) {
  telemetry::Registry &Reg = telemetry::Registry::instance();
  Reg.setCurrentThreadName(format("worker-%u", WorkerIndex));
  static telemetry::Metric &JobsExecuted =
      telemetry::gauge("threadpool.jobs.executed");
  static telemetry::Metric &BusyNs = telemetry::gauge("threadpool.busy_ns");
  while (true) {
    std::function<void()> Job;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkAvailable.wait(Lock,
                         [this] { return ShuttingDown || !Queue.empty(); });
      // Drain the queue even when shutting down so queued futures always
      // complete.
      if (Queue.empty())
        return;
      Job = std::move(Queue.front());
      Queue.pop_front();
      ++ActiveJobs;
    }
    // When spans are on, each job gets a "pool.job" span on this worker's
    // track and its wall time feeds the busy-time gauge; when off, the
    // cost is one relaxed load plus one relaxed add per job.
    if (Reg.spansEnabled()) {
      uint64_t Begin = Reg.nowNs();
      Job();
      uint64_t End = Reg.nowNs();
      Reg.recordSpan("pool.job", Begin, End);
      BusyNs.add(End - Begin);
    } else {
      Job();
    }
    JobsExecuted.add(1);
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      --ActiveJobs;
      if (Queue.empty() && ActiveJobs == 0)
        AllIdle.notify_all();
    }
  }
}
