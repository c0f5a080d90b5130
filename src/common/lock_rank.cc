#include "common/lock_rank.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <vector>

#include "common/assert.h"

namespace blendhouse::common::lockrank {

namespace {

struct NamedRank {
  int rank;
  const char* name;
};

// Keep in sync with the constants in lock_rank.h; tools/lockgraph.py parses
// the header, so the authoritative list lives there.
constexpr NamedRank kRankNames[] = {
    {kCatalog, "kCatalog(1000)"},
    {kLsmFlush, "kLsmFlush(950)"},
    {kLsmMemtable, "kLsmMemtable(940)"},
    {kLsmPending, "kLsmPending(930)"},
    {kLsmPartitioner, "kLsmPartitioner(880)"},
    {kVersionSet, "kVersionSet(860)"},
    {kTableStats, "kTableStats(840)"},
    {kVirtualWarehouse, "kVirtualWarehouse(800)"},
    {kPlanCache, "kPlanCache(700)"},
    {kQueryFanIn, "kQueryFanIn(600)"},
    {kSpan, "kSpan(500)"},
    {kTrace, "kTrace(480)"},
    {kTraceSink, "kTraceSink(460)"},
    {kQueryLog, "kQueryLog(440)"},
    {kFuture, "kFuture(400)"},
    {kObjectStore, "kObjectStore(300)"},
    {kLruCache, "kLruCache(250)"},
    {kThreadPool, "kThreadPool(200)"},
    {kTaskScheduler, "kTaskScheduler(180)"},
    {kMetricsRegistry, "kMetricsRegistry(150)"},
    {kSimWait, "kSimWait(100)"},
};

// The held-rank stack for this thread, innermost (most recent) last. Plain
// vector: depth is tiny (<= 4 in practice) and the checks only exist in
// rank-checked builds.
thread_local std::vector<int> g_held;

[[noreturn]] void RankFail(const char* check, int rank, const char* extra) {
  char msg[256];
  if (!g_held.empty()) {
    std::snprintf(msg, sizeof(msg),
                  "%s: acquiring %s while holding %s (innermost of %zu)%s",
                  check, RankName(rank), RankName(g_held.back()),
                  g_held.size(), extra);
  } else {
    std::snprintf(msg, sizeof(msg), "%s: %s%s", check, RankName(rank), extra);
  }
  internal::AssertFail("lock_rank", 0, "lock-rank discipline", msg);
}

}  // namespace

const char* RankName(int rank) {
  if (rank == kUnranked) return "unranked";
  for (const auto& nr : kRankNames) {
    if (nr.rank == rank) return nr.name;
  }
  // Unknown (test-local) ranks: render the number. Static buffer is fine —
  // this feeds abort messages and tests, not concurrent hot paths.
  thread_local char buf[32];
  std::snprintf(buf, sizeof(buf), "rank(%d)", rank);
  return buf;
}

void NoteAcquire(int rank) {
  if (rank == kUnranked) return;
  if (!g_held.empty() && rank >= g_held.back()) {
    RankFail("lock-rank violation", rank,
             "; acquisition order must be strictly decreasing");
  }
  g_held.push_back(rank);
}

void NoteRelease(int rank) {
  if (rank == kUnranked) return;
  // Locks are almost always released innermost-first (RAII), but scoped
  // unlock patterns may release out of order; erase the most recent match.
  auto it = std::find(g_held.rbegin(), g_held.rend(), rank);
  if (it == g_held.rend()) {
    RankFail("lock-rank violation", rank, "; released a rank not held");
  }
  g_held.erase(std::next(it).base());
}

void NoteWaitRelease(int rank) {
  if (rank == kUnranked) return;
  if (g_held.empty() || g_held.back() != rank) {
    RankFail("lock-rank violation", rank,
             "; CondVar wait must hold the waited mutex as the innermost "
             "ranked lock");
  }
  g_held.pop_back();
}

void NoteWaitReacquire(int rank) {
  if (rank == kUnranked) return;
  // Re-acquisition after the wait must still be monotone with respect to
  // whatever the thread was left holding (normally unchanged).
  if (!g_held.empty() && rank >= g_held.back()) {
    RankFail("lock-rank violation", rank, "; wait re-acquired out of order");
  }
  g_held.push_back(rank);
}

void AssertNoneHeld(const char* what) {
  if (g_held.empty()) return;
  char msg[256];
  std::snprintf(msg, sizeof(msg),
                "callback-under-lock: %s invoked while holding %s (%zu ranked "
                "lock(s)); release the lock before calling out",
                what, RankName(g_held.back()), g_held.size());
  internal::AssertFail("lock_rank", 0, "no ranked locks across callbacks",
                       msg);
}

int HeldDepthForTest() { return static_cast<int>(g_held.size()); }

int MinHeldRankForTest() {
  if (g_held.empty()) return std::numeric_limits<int>::max();
  return *std::min_element(g_held.begin(), g_held.end());
}

}  // namespace blendhouse::common::lockrank
