#include "serial/messages.hpp"

#include "rtree/node.hpp"
#include "rtree/segment_store.hpp"

namespace mosaiq::serial {

namespace {

/// Validates a decoded element count against the bytes actually
/// available, so corrupt or hostile headers cannot drive giant
/// allocations before the truncation is even noticed.
void require_capacity(const ByteReader& r, std::uint64_t n, std::uint64_t per_element) {
  if (per_element != 0 && n > r.remaining() / per_element) {
    throw std::out_of_range("decode: element count " + std::to_string(n) +
                            " exceeds remaining payload");
  }
}

void encode_query(ByteWriter& w, const rtree::Query& q) {
  w.u8(static_cast<std::uint8_t>(rtree::kind_of(q)));
  std::visit(
      [&](const auto& v) {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, rtree::PointQuery>) {
          w.f64(v.p.x);
          w.f64(v.p.y);
        } else if constexpr (std::is_same_v<T, rtree::RangeQuery>) {
          w.f64(v.window.lo.x);
          w.f64(v.window.lo.y);
          w.f64(v.window.hi.x);
          w.f64(v.window.hi.y);
        } else if constexpr (std::is_same_v<T, rtree::KnnQuery>) {
          w.f64(v.p.x);
          w.f64(v.p.y);
          w.u32(v.k);
        } else if constexpr (std::is_same_v<T, rtree::RouteQuery>) {
          w.u32(static_cast<std::uint32_t>(v.waypoints.size()));
          for (const geom::Point& pt : v.waypoints) {
            w.f64(pt.x);
            w.f64(pt.y);
          }
        } else {
          w.f64(v.p.x);
          w.f64(v.p.y);
        }
      },
      q);
}

rtree::Query decode_query(ByteReader& r) {
  const auto kind = static_cast<rtree::QueryKind>(r.u8());
  switch (kind) {
    case rtree::QueryKind::Point: {
      rtree::PointQuery q;
      q.p.x = r.f64();
      q.p.y = r.f64();
      return q;
    }
    case rtree::QueryKind::Range: {
      rtree::RangeQuery q;
      q.window.lo.x = r.f64();
      q.window.lo.y = r.f64();
      q.window.hi.x = r.f64();
      q.window.hi.y = r.f64();
      return q;
    }
    case rtree::QueryKind::NN: {
      rtree::NNQuery q;
      q.p.x = r.f64();
      q.p.y = r.f64();
      return q;
    }
    case rtree::QueryKind::Knn: {
      rtree::KnnQuery q;
      q.p.x = r.f64();
      q.p.y = r.f64();
      q.k = r.u32();
      return q;
    }
    case rtree::QueryKind::Route: {
      rtree::RouteQuery q;
      const std::uint32_t n = r.u32();
      require_capacity(r, n, 16);
      q.waypoints.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        geom::Point pt;
        pt.x = r.f64();
        pt.y = r.f64();
        q.waypoints.push_back(pt);
      }
      return q;
    }
  }
  throw std::out_of_range("decode_query: bad query kind");
}

std::uint64_t query_size(const rtree::Query& q) {
  switch (rtree::kind_of(q)) {
    case rtree::QueryKind::Range: return 1 + 32;
    case rtree::QueryKind::Knn: return 1 + 16 + 4;
    case rtree::QueryKind::Route:
      return 1 + 4 + 16ull * std::get<rtree::RouteQuery>(q).waypoints.size();
    default: return 1 + 16;
  }
}

void encode_record(ByteWriter& w, const WireRecord& rec) {
  w.f64(rec.seg.a.x);
  w.f64(rec.seg.a.y);
  w.f64(rec.seg.b.x);
  w.f64(rec.seg.b.y);
  w.u32(rec.id);
  w.zeros(rtree::kAttributeBytes);
}

WireRecord decode_record(ByteReader& r) {
  WireRecord rec;
  rec.seg.a.x = r.f64();
  rec.seg.a.y = r.f64();
  rec.seg.b.x = r.f64();
  rec.seg.b.y = r.f64();
  rec.id = r.u32();
  r.skip(rtree::kAttributeBytes);
  return rec;
}

}  // namespace

// --- QueryRequest ----------------------------------------------------------

void QueryRequest::encode(ByteWriter& w) const {
  w.u8(static_cast<std::uint8_t>(op));
  w.u8(client_has_data ? 1 : 0);
  encode_query(w, query);
  w.u64(mem_budget);
  w.u32(static_cast<std::uint32_t>(candidates.size()));
  for (const std::uint32_t c : candidates) w.u32(c);
}

QueryRequest QueryRequest::decode(ByteReader& r) {
  QueryRequest q;
  q.op = static_cast<RemoteOp>(r.u8());
  q.client_has_data = r.u8() != 0;
  q.query = decode_query(r);
  q.mem_budget = r.u64();
  const std::uint32_t n = r.u32();
  require_capacity(r, n, 4);
  q.candidates.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) q.candidates.push_back(r.u32());
  return q;
}

std::uint64_t QueryRequest::encoded_size() const { return size_for(query, candidates.size()); }

std::uint64_t QueryRequest::size_for(const rtree::Query& query, std::uint64_t n_candidates) {
  return 1 + 1 + query_size(query) + 8 + 4 + 4 * n_candidates;
}

// --- IdListResponse ----------------------------------------------------------

void IdListResponse::encode(ByteWriter& w) const {
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (const std::uint32_t id : ids) w.u32(id);
}

IdListResponse IdListResponse::decode(ByteReader& r) {
  IdListResponse resp;
  const std::uint32_t n = r.u32();
  require_capacity(r, n, 4);
  resp.ids.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) resp.ids.push_back(r.u32());
  return resp;
}

std::uint64_t IdListResponse::encoded_size() const { return size_for(ids.size()); }

std::uint64_t IdListResponse::size_for(std::uint64_t n_ids) { return 4 + 4 * n_ids; }

// --- RecordResponse ----------------------------------------------------------

void RecordResponse::encode(ByteWriter& w) const {
  w.u32(static_cast<std::uint32_t>(records.size()));
  for (const WireRecord& rec : records) encode_record(w, rec);
}

RecordResponse RecordResponse::decode(ByteReader& r) {
  RecordResponse resp;
  const std::uint32_t n = r.u32();
  require_capacity(r, n, rtree::kRecordBytes);
  resp.records.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) resp.records.push_back(decode_record(r));
  return resp;
}

std::uint64_t RecordResponse::encoded_size() const { return size_for(records.size()); }

std::uint64_t RecordResponse::size_for(std::uint64_t n_records) {
  return 4 + std::uint64_t{rtree::kRecordBytes} * n_records;
}

// --- NNResponse ----------------------------------------------------------

void NNResponse::encode(ByteWriter& w) const {
  w.u8(found ? 1 : 0);
  w.u32(id);
  w.f64(dist);
}

NNResponse NNResponse::decode(ByteReader& r) {
  NNResponse resp;
  resp.found = r.u8() != 0;
  resp.id = r.u32();
  resp.dist = r.f64();
  return resp;
}

std::uint64_t NNResponse::encoded_size() const { return 1 + 4 + 8; }

// --- ShipmentResponse ----------------------------------------------------------

void ShipmentResponse::encode(ByteWriter& w) const {
  w.f64(safe_rect.lo.x);
  w.f64(safe_rect.lo.y);
  w.f64(safe_rect.hi.x);
  w.f64(safe_rect.hi.y);
  w.u64(node_count);
  w.u32(static_cast<std::uint32_t>(records.size()));
  for (const WireRecord& rec : records) encode_record(w, rec);
  w.zeros(node_count * rtree::kNodeBytes);  // opaque index node images
}

ShipmentResponse ShipmentResponse::decode(ByteReader& r) {
  ShipmentResponse resp;
  resp.safe_rect.lo.x = r.f64();
  resp.safe_rect.lo.y = r.f64();
  resp.safe_rect.hi.x = r.f64();
  resp.safe_rect.hi.y = r.f64();
  resp.node_count = r.u64();
  require_capacity(r, resp.node_count, rtree::kNodeBytes);
  const std::uint32_t n = r.u32();
  require_capacity(r, n, rtree::kRecordBytes);
  resp.records.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) resp.records.push_back(decode_record(r));
  r.skip(resp.node_count * rtree::kNodeBytes);
  return resp;
}

std::uint64_t ShipmentResponse::encoded_size() const {
  return size_for(records.size(), node_count);
}

std::uint64_t ShipmentResponse::size_for(std::uint64_t n_records, std::uint64_t node_count) {
  return 32 + 8 + 4 + std::uint64_t{rtree::kRecordBytes} * n_records +
         node_count * rtree::kNodeBytes;
}

}  // namespace mosaiq::serial
