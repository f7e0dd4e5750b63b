//===- serve/Server.h - The continuous-profiling ingestion daemon ---------===//
//
// Part of the gprof-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-lived half of fleet collection: a daemon that owns one
/// ProfileStore and serves PUT_SHARD / QUERY_REPORT / LIST / PING requests
/// from many concurrent clients over a local UNIX socket.  This is the
/// "millions of users" step past single-process gprof — every profiled run
/// pushes its shard here instead of leaving gmon files strewn across the
/// fleet, and any client can turn the accumulated shards into the same
/// byte-exact listings `gprof-store report` produces offline.
///
/// Concurrency model (docs/SERVE.md): a dedicated accept thread admits
/// connections onto a fixed support/ThreadPool; one pool job serves one
/// connection for its whole lifetime, so at most `Workers` connections
/// are in service and at most `MaxQueuedConnections` more may sit queued.
/// Beyond that the daemon answers RETRY-with-hint and closes — bounded
/// queueing with explicit backpressure instead of unbounded buffering.
/// Store index safety under concurrent PUTs is ProfileStore's own
/// single-writer lock; socket reads/writes carry the PR 4 fault points so
/// crash-safety of concurrent ingest is tested, not assumed.
///
//===----------------------------------------------------------------------===//

#ifndef GPROF_SERVE_SERVER_H
#define GPROF_SERVE_SERVER_H

#include "serve/Connection.h"
#include "serve/Protocol.h"
#include "store/ProfileStore.h"
#include "support/Error.h"
#include "support/Socket.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <memory>
#include <string>
#include <thread>

namespace gprof {
namespace serve {

/// Daemon behavior knobs.
struct ServeOptions {
  /// Worker threads — the number of connections in service at once.
  unsigned Workers = 8;
  /// Admitted connections allowed to wait for a free worker beyond the
  /// ones in service; arrivals past Workers + MaxQueuedConnections get a
  /// RETRY response and are closed.
  unsigned MaxQueuedConnections = 8;
  /// Accept-loop poll granularity (also bounds stop() latency).
  int AcceptPollMs = 100;
  /// Per-connection idle timeout (serve/Connection.h).
  int IdleTimeoutMs = 30000;
  /// Requests slower than this are reported to the event log
  /// ("request.slow"); negative disables the check.
  int SlowRequestMs = 1000;
  /// Fold freshly pushed shards into tiered runs on the daemon's own pool
  /// between requests (store/ProfileStore.h), keeping report queries
  /// O(log N) as shards stream in.  Disable to pin the store's layout
  /// (e.g. when an offline `gprof-store compact` owns compaction).
  bool BackgroundCompaction = true;
  /// Store behavior (tolerant reads, I/O retry budget, compaction fanout).
  StoreOptions Store;
};

/// One running daemon instance.  Create, start(), and eventually stop();
/// the destructor stops implicitly.  Heap-only (returned by unique_ptr)
/// because worker lambdas capture `this`.
class ServeServer {
public:
  /// Opens (creating if needed) the store at \p StoreRoot and binds the
  /// listener at \p SocketPath.  The daemon is not serving until start().
  static Expected<std::unique_ptr<ServeServer>>
  create(const std::string &StoreRoot, const std::string &SocketPath,
         const ServeOptions &Opts = {});

  ~ServeServer() { stop(); }

  /// Spawns the accept loop.  Idempotent once started.
  Error start();

  /// Stops accepting, wakes idle connections (they observe the stop flag
  /// within one poll interval), drains in-flight requests, and joins.
  /// Idempotent.
  void stop();

  const std::string &socketPath() const { return Listener.path(); }
  const ServeOptions &options() const { return Opts; }

  /// The daemon's store.  Safe to inspect after stop(); during service,
  /// use the store's own thread-safe entry points.
  ProfileStore &store() { return Store; }

private:
  ServeServer(ProfileStore Store, UnixListener Listener, ServeOptions Opts);

  void acceptLoop();
  void serveConnection(Connection &Conn);
  /// Dispatches one request; returns false when the connection must close
  /// (protocol violation or unwritable peer).
  bool dispatch(Connection &Conn, const Frame &Request);

  /// Enqueues one background compaction drain onto the pool when folds
  /// are pending and none is already running — called after every
  /// successful PUT_SHARD and once at start() to fold a store that grew
  /// offline.  The drain runs compactStep (sequentially: a pool worker
  /// must not fan subtasks back onto its own pool) until done, then
  /// re-checks for pushes that arrived meanwhile.
  void maybeScheduleCompaction();

  /// Answers one PUT_SHARD; sets \p Stored once the shard is in the
  /// store, so the caller schedules compaction after the reply.
  Error handlePut(Connection &Conn, const Frame &Request, bool &Stored);
  Error handleList(Connection &Conn);
  Error handleQuery(Connection &Conn, const Frame &Request);
  /// Answers QUERY_STATS from the telemetry registry and event log only —
  /// never takes the store's ingest lock, so stats stay responsive while
  /// a heavy merge holds it.
  Error handleStats(Connection &Conn, const Frame &Request);

  ProfileStore Store;
  UnixListener Listener;
  ServeOptions Opts;
  ThreadPool Pool;
  std::thread AcceptThread;
  std::atomic<bool> Stop{false};
  std::atomic<bool> Started{false};
  /// True while a compaction drain occupies a pool worker; at most one
  /// runs at a time so folds never contend on the ingest lock with each
  /// other.
  std::atomic<bool> CompactionBusy{false};
  /// Connections admitted (queued + in service).
  std::atomic<unsigned> Active{0};
  /// Monotonic request-id source; ids are per-process, never reused.
  std::atomic<uint64_t> NextRequestId{0};
  /// Registry timestamp at construction, for QUERY_STATS uptime.
  uint64_t StartNs = 0;
};

} // namespace serve
} // namespace gprof

#endif // GPROF_SERVE_SERVER_H
