// Wire messages exchanged between the mobile client and the server.
//
// Sizes are byte-faithful to the modeling assumptions of the paper:
// a query fits one packet; an answer is either a list of 4 B object ids
// (data already resident on the client) or a list of 76 B records
// (coordinates + id + 40 B attribute blob); the insufficient-memory
// shipment carries records plus 512 B index node images.  Each sized
// message's static size_for() gives its encoded size from counts alone,
// so the simulator prices a message without building it.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/rect.hpp"
#include "geom/segment.hpp"
#include "rtree/query.hpp"
#include "serial/buffer.hpp"

namespace mosaiq::serial {

/// What the client asks the server to do.
enum class RemoteOp : std::uint8_t {
  FullQuery,      ///< run filter + refine (or NN) and return the answer
  FilterOnly,     ///< run the filtering step, return candidate ids
  RefineOnly,     ///< refine the attached candidate ids, return the answer
  ShipRegion,     ///< insufficient memory: ship data + index around the query
};

/// Client -> server.
struct QueryRequest {
  RemoteOp op = RemoteOp::FullQuery;
  rtree::Query query{rtree::PointQuery{}};
  /// True when the client holds the dataset, so ids suffice in responses.
  bool client_has_data = true;
  /// Client memory budget in bytes (ShipRegion only).
  std::uint64_t mem_budget = 0;
  /// Candidate record ids (RefineOnly only).
  std::vector<std::uint32_t> candidates;

  void encode(ByteWriter& w) const;
  static QueryRequest decode(ByteReader& r);
  std::uint64_t encoded_size() const;
  /// Encoded size of a request for `query` carrying `n_candidates` ids.
  static std::uint64_t size_for(const rtree::Query& query, std::uint64_t n_candidates);
};

/// Server -> client: answer as object ids (data resident at client).
struct IdListResponse {
  std::vector<std::uint32_t> ids;

  void encode(ByteWriter& w) const;
  static IdListResponse decode(ByteReader& r);
  std::uint64_t encoded_size() const;
  static std::uint64_t size_for(std::uint64_t n_ids);
};

/// One full data record on the wire (76 B + 4 B framing handled by the
/// response container).
struct WireRecord {
  geom::Segment seg;
  std::uint32_t id = 0;
  // 40 B opaque attribute payload is materialized as zeros on encode.
};

/// Server -> client: answer as full records (data absent at client).
struct RecordResponse {
  std::vector<WireRecord> records;

  void encode(ByteWriter& w) const;
  static RecordResponse decode(ByteReader& r);
  std::uint64_t encoded_size() const;
  static std::uint64_t size_for(std::uint64_t n_records);
};

/// Server -> client: nearest-neighbor answer.
struct NNResponse {
  bool found = false;
  std::uint32_t id = 0;
  double dist = 0.0;

  void encode(ByteWriter& w) const;
  static NNResponse decode(ByteReader& r);
  std::uint64_t encoded_size() const;
};

/// Server -> client: shipped region for the insufficient-memory scheme.
/// Index node images travel as opaque 512 B blocks (the client installs
/// them verbatim; our simulator reconstructs the identical packed tree
/// deterministically from the record order instead of parsing blocks).
struct ShipmentResponse {
  geom::Rect safe_rect = geom::Rect::empty();
  std::uint64_t node_count = 0;
  std::vector<WireRecord> records;

  void encode(ByteWriter& w) const;
  static ShipmentResponse decode(ByteReader& r);
  std::uint64_t encoded_size() const;
  static std::uint64_t size_for(std::uint64_t n_records, std::uint64_t node_count);
};

}  // namespace mosaiq::serial
