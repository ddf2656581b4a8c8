// The work-partitioning design space (paper Table 1).
#pragma once

#include <cstdint>
#include <string>

namespace mosaiq::core {

/// Where the filtering/refinement computation runs (adequate-memory
/// scenario).  For nearest-neighbor queries — which have no separate
/// filtering/refinement phases — only the two "Fully" schemes apply.
enum class Scheme : std::uint8_t {
  FullyAtClient,             ///< w2 = 0; index + data at the client
  FullyAtServer,             ///< w1 + w3 + w4 = 0
  FilterClientRefineServer,  ///< w1 = filtering, w2 = refinement
  FilterServerRefineClient,  ///< w2 = filtering, w3 = refinement
};

inline const char* name_of(Scheme s) {
  switch (s) {
    case Scheme::FullyAtClient: return "fully-at-client";
    case Scheme::FullyAtServer: return "fully-at-server";
    case Scheme::FilterClientRefineServer: return "filter@client/refine@server";
    case Scheme::FilterServerRefineClient: return "filter@server/refine@client";
  }
  return "?";
}

/// Data placement variation (Table 1, right column): when the data set is
/// replicated on the client, responses carry 4 B object ids; when it only
/// lives at the server, responses must carry full 76 B records.
struct DataPlacement {
  bool data_at_client = true;
};

/// How one query ended.  Fault-free execution always reports Ok; the
/// other states only arise on a faulty link whose retry budget ran out
/// (core/transport.hpp).
enum class QueryStatus : std::uint8_t {
  Ok,             ///< executed under the configured scheme
  DegradedLocal,  ///< link failed; answered from client-resident data
  Failed,         ///< link failed and the client holds no data to fall back on
};

inline const char* name_of(QueryStatus s) {
  switch (s) {
    case QueryStatus::Ok: return "ok";
    case QueryStatus::DegradedLocal: return "degraded-local";
    case QueryStatus::Failed: return "failed";
  }
  return "?";
}

/// True when the scheme needs the wireless link at all.
inline bool uses_server(Scheme s) { return s != Scheme::FullyAtClient; }

}  // namespace mosaiq::core
