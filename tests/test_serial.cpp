#include <gtest/gtest.h>

#include <random>

#include "rtree/node.hpp"
#include "rtree/segment_store.hpp"
#include "serial/messages.hpp"

namespace mosaiq::serial {
namespace {

TEST(ByteBuffer, PrimitivesRoundTrip) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.f64(-1234.5678);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_DOUBLE_EQ(r.f64(), -1234.5678);
  EXPECT_TRUE(r.done());
}

TEST(ByteBuffer, LittleEndianLayout) {
  ByteWriter w;
  w.u32(0x01020304);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.data()[0], 0x04);
  EXPECT_EQ(w.data()[3], 0x01);
}

TEST(ByteBuffer, TruncationThrows) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.data());
  EXPECT_THROW(r.u32(), std::out_of_range);
}

TEST(ByteBuffer, ZerosAndSkip) {
  ByteWriter w;
  w.zeros(40);
  w.u8(9);
  ByteReader r(w.data());
  r.skip(40);
  EXPECT_EQ(r.u8(), 9);
}

TEST(QueryRequest, RoundTripAllKinds) {
  for (const rtree::Query& q :
       {rtree::Query{rtree::PointQuery{{0.1, 0.2}}},
        rtree::Query{rtree::RangeQuery{{{0.1, 0.2}, {0.3, 0.4}}}},
        rtree::Query{rtree::NNQuery{{0.5, 0.6}}}}) {
    QueryRequest req;
    req.op = RemoteOp::FilterOnly;
    req.query = q;
    req.client_has_data = false;
    req.mem_budget = 123456789;
    ByteWriter w;
    req.encode(w);
    EXPECT_EQ(w.size(), req.encoded_size());
    ByteReader r(w.data());
    const QueryRequest back = QueryRequest::decode(r);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(back.op, req.op);
    EXPECT_EQ(back.client_has_data, req.client_has_data);
    EXPECT_EQ(back.mem_budget, req.mem_budget);
    EXPECT_EQ(rtree::kind_of(back.query), rtree::kind_of(req.query));
  }
}

TEST(QueryRequest, CandidatesRoundTrip) {
  QueryRequest req;
  req.op = RemoteOp::RefineOnly;
  req.query = rtree::RangeQuery{{{0, 0}, {1, 1}}};
  req.candidates = {5, 9, 1000000, 0};
  ByteWriter w;
  req.encode(w);
  EXPECT_EQ(w.size(), req.encoded_size());
  ByteReader r(w.data());
  EXPECT_EQ(QueryRequest::decode(r).candidates, req.candidates);
}

TEST(IdListResponse, SizeAndRoundTrip) {
  IdListResponse resp;
  resp.ids = {1, 2, 3, 42};
  EXPECT_EQ(resp.encoded_size(), 4u + 16u);
  ByteWriter w;
  resp.encode(w);
  EXPECT_EQ(w.size(), resp.encoded_size());
  ByteReader r(w.data());
  EXPECT_EQ(IdListResponse::decode(r).ids, resp.ids);
}

TEST(RecordResponse, RecordIs76BytesOnWire) {
  RecordResponse resp;
  resp.records = {{{{0.1, 0.2}, {0.3, 0.4}}, 77}};
  EXPECT_EQ(resp.encoded_size(), 4u + rtree::kRecordBytes);
  ByteWriter w;
  resp.encode(w);
  EXPECT_EQ(w.size(), resp.encoded_size());
  ByteReader r(w.data());
  const RecordResponse back = RecordResponse::decode(r);
  ASSERT_EQ(back.records.size(), 1u);
  EXPECT_EQ(back.records[0].id, 77u);
  EXPECT_DOUBLE_EQ(back.records[0].seg.b.y, 0.4);
}

TEST(NNResponse, RoundTrip) {
  NNResponse resp{true, 314, 2.718};
  ByteWriter w;
  resp.encode(w);
  EXPECT_EQ(w.size(), resp.encoded_size());
  ByteReader r(w.data());
  const NNResponse back = NNResponse::decode(r);
  EXPECT_TRUE(back.found);
  EXPECT_EQ(back.id, 314u);
  EXPECT_DOUBLE_EQ(back.dist, 2.718);
}

TEST(ShipmentResponse, CarriesNodeImages) {
  ShipmentResponse resp;
  resp.safe_rect = {{0.1, 0.1}, {0.9, 0.9}};
  resp.node_count = 3;
  resp.records.resize(5);
  EXPECT_EQ(resp.encoded_size(),
            32u + 8u + 4u + 5u * rtree::kRecordBytes + 3u * rtree::kNodeBytes);
  ByteWriter w;
  resp.encode(w);
  EXPECT_EQ(w.size(), resp.encoded_size());
  ByteReader r(w.data());
  const ShipmentResponse back = ShipmentResponse::decode(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back.node_count, 3u);
  EXPECT_EQ(back.records.size(), 5u);
  EXPECT_DOUBLE_EQ(back.safe_rect.hi.x, 0.9);
}

TEST(SizeFor, MatchesTheEncodedBytesFromCountsAlone) {
  // The simulator prices messages with size_for and never builds them,
  // so each must equal the byte count its message actually encodes to.
  const rtree::Query route{rtree::RouteQuery{{{0.1, 0.1}, {0.4, 0.2}, {0.6, 0.7}}}};
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{1000}}) {
    SCOPED_TRACE(n);
    for (const rtree::Query& q :
         {rtree::Query{rtree::RangeQuery{{{0.1, 0.2}, {0.3, 0.4}}}}, route}) {
      QueryRequest req;
      req.query = q;
      req.candidates.resize(n);
      ByteWriter w;
      req.encode(w);
      EXPECT_EQ(QueryRequest::size_for(q, n), w.size());
      EXPECT_EQ(req.encoded_size(), w.size());
    }

    IdListResponse ids;
    ids.ids.resize(n);
    ByteWriter w_ids;
    ids.encode(w_ids);
    EXPECT_EQ(IdListResponse::size_for(n), w_ids.size());

    RecordResponse rec;
    rec.records.resize(n);
    ByteWriter w_rec;
    rec.encode(w_rec);
    EXPECT_EQ(RecordResponse::size_for(n), w_rec.size());

    ShipmentResponse ship;
    ship.node_count = n / 10 + 1;
    ship.records.resize(n);
    ByteWriter w_ship;
    ship.encode(w_ship);
    EXPECT_EQ(ShipmentResponse::size_for(n, ship.node_count), w_ship.size());
  }
}

class SerialSizeProperty : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SerialSizeProperty, EncodedSizeAlwaysMatchesBytes) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<std::uint32_t> n(0, 500);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  for (int iter = 0; iter < 50; ++iter) {
    QueryRequest req;
    req.op = static_cast<RemoteOp>(iter % 4);
    req.query = rtree::RangeQuery{{{u(rng), u(rng)}, {u(rng), u(rng)}}};
    req.candidates.resize(n(rng));
    ByteWriter w1;
    req.encode(w1);
    EXPECT_EQ(w1.size(), req.encoded_size());

    RecordResponse rec;
    rec.records.resize(n(rng));
    ByteWriter w2;
    rec.encode(w2);
    EXPECT_EQ(w2.size(), rec.encoded_size());

    ShipmentResponse ship;
    ship.node_count = n(rng);
    ship.records.resize(n(rng));
    ByteWriter w3;
    ship.encode(w3);
    EXPECT_EQ(w3.size(), ship.encoded_size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerialSizeProperty, ::testing::Values(1u, 2u, 3u));

}  // namespace
}  // namespace mosaiq::serial
