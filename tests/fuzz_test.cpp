// Fuzz-style robustness tests: malformed and randomized inputs must either
// be handled or rejected with ParseError/ContractError — never crash or
// silently corrupt (the ORB decodes frames from the network; the GLOB
// parser consumes application strings).
#include <gtest/gtest.h>

#include <string>

#include "cluster/replication.hpp"
#include "cluster/shard_host.hpp"
#include "core/remote_registry.hpp"
#include "fusion/engine.hpp"
#include "glob/glob.hpp"
#include "orb/message.hpp"
#include "orb/tcp.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mw {
namespace {

// --- GLOB round-trip over randomized valid inputs --------------------------------

class GlobFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GlobFuzz, RandomValidGlobsRoundTrip) {
  util::Rng rng{GetParam()};
  const std::string alphabet = "abcXYZ019_-.";
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<std::string> path;
    auto segments = rng.uniformInt(1, 5);
    for (int s = 0; s < segments; ++s) {
      std::string seg;
      auto len = rng.uniformInt(1, 8);
      for (int c = 0; c < len; ++c) {
        seg += alphabet[static_cast<std::size_t>(
            rng.uniformInt(0, std::ssize(alphabet) - 1))];
      }
      path.push_back(seg);
    }
    glob::Glob g;
    if (rng.chance(0.5)) {
      g = glob::Glob::symbolic(path);
    } else {
      std::vector<geo::Point3> coords;
      auto n = rng.uniformInt(1, 5);
      for (int c = 0; c < n; ++c) {
        coords.push_back({std::floor(rng.uniform(-100, 100)),
                          std::floor(rng.uniform(-100, 100)),
                          rng.chance(0.5) ? std::floor(rng.uniform(1, 9)) : 0.0});
      }
      g = glob::Glob::coordinate(path, coords);
    }
    glob::Glob back = glob::Glob::parse(g.str());
    EXPECT_EQ(back, g) << g.str();
  }
}

TEST_P(GlobFuzz, RandomGarbageNeverCrashes) {
  util::Rng rng{GetParam() ^ 0xF00D};
  for (int iter = 0; iter < 500; ++iter) {
    std::string junk;
    auto len = rng.uniformInt(0, 24);
    for (int c = 0; c < len; ++c) {
      junk += static_cast<char>(rng.uniformInt(32, 126));
    }
    try {
      auto g = glob::Glob::parse(junk);
      // If it parsed, its canonical form must re-parse to the same value.
      EXPECT_EQ(glob::Glob::parse(g.str()), g) << junk;
    } catch (const util::ParseError&) {
      // rejection is fine
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GlobFuzz, ::testing::Values(1u, 2u, 3u));

// --- ORB frame decoding over random bytes ------------------------------------------

class FrameFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FrameFuzz, RandomFramesThrowOrDecode) {
  util::Rng rng{GetParam()};
  for (int iter = 0; iter < 2000; ++iter) {
    util::Bytes frame(static_cast<std::size_t>(rng.uniformInt(0, 64)));
    for (auto& b : frame) b = static_cast<std::uint8_t>(rng.uniformInt(0, 255));
    try {
      orb::Message m = orb::Message::decode(frame);
      // A frame that decodes must re-encode to the identical bytes.
      EXPECT_EQ(m.encode(), frame);
    } catch (const util::ParseError&) {
      // rejection is fine
    }
  }
}

TEST_P(FrameFuzz, TruncatedRealFramesThrow) {
  util::Rng rng{GetParam() ^ 0xBEEF};
  orb::Message m;
  m.type = orb::MessageType::Request;
  m.requestId = 77;
  m.target = "locateObject";
  m.payload = {1, 2, 3, 4, 5, 6, 7, 8};
  util::Bytes full = m.encode();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    util::Bytes truncated(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW(orb::Message::decode(truncated), util::ParseError) << "cut=" << cut;
  }
  (void)rng;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrameFuzz, ::testing::Values(11u, 13u));

// --- fusion invariants over random inputs ------------------------------------------

class FusionFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FusionFuzz, NormalizedDistributionSumsToOneOverMinimalRegions) {
  util::Rng rng{GetParam()};
  const geo::Rect universe = geo::Rect::fromOrigin({0, 0}, 100, 100);
  fusion::FusionEngine engine(universe);
  for (int iter = 0; iter < 20; ++iter) {
    fusion::FusionInputs inputs;
    auto n = rng.uniformInt(1, 6);
    for (int i = 0; i < n; ++i) {
      double p = rng.uniform(0.55, 0.99);
      double q = rng.uniform(0.0001, 0.2);
      if (q >= p) std::swap(p, q);
      inputs.push_back(fusion::FusionInput{
          util::SensorId{"s" + std::to_string(i)},
          geo::Rect::fromOrigin({rng.uniform(0, 70), rng.uniform(0, 70)},
                                rng.uniform(2, 25), rng.uniform(2, 25)),
          p, q, rng.chance(0.3)});
    }
    auto dist = engine.distribution(inputs, /*normalize=*/true);
    // After normalization the minimal (bottom-parent) regions must sum to 1.
    // Recover them: rebuild the lattice the way the engine does.
    auto active = engine.resolveConflicts(inputs, nullptr);
    if (active.empty()) continue;
    lattice::RectLattice lat(universe);
    for (const auto& in : active) lat.insert(in.rect, in.sensorId.str());
    double sum = 0;
    for (std::size_t p : lat.bottomParents()) sum += dist[p].probability;
    EXPECT_NEAR(sum, 1.0, 1e-6) << "iter " << iter;
    for (const auto& rp : dist) {
      EXPECT_GE(rp.probability, 0.0);
      EXPECT_LE(rp.probability, 1.0 + 1e-9);
    }
  }
}

TEST_P(FusionFuzz, InferredEstimateIsAlwaysSane) {
  util::Rng rng{GetParam() ^ 0xABC};
  const geo::Rect universe = geo::Rect::fromOrigin({0, 0}, 200, 100);
  fusion::FusionEngine engine(universe);
  for (int iter = 0; iter < 50; ++iter) {
    fusion::FusionInputs inputs;
    auto n = rng.uniformInt(0, 7);
    for (int i = 0; i < n; ++i) {
      inputs.push_back(fusion::FusionInput{
          util::SensorId{"s" + std::to_string(i)},
          geo::Rect::fromOrigin({rng.uniform(-20, 210), rng.uniform(-20, 110)},
                                rng.uniform(0.5, 40), rng.uniform(0.5, 40)),
          rng.uniform(0, 1), rng.uniform(0, 1), rng.chance(0.5)});
    }
    auto est = engine.infer(inputs);
    if (!est) continue;
    EXPECT_GE(est->probability, 0.0);
    EXPECT_LE(est->probability, 1.0);
    EXPECT_TRUE(universe.contains(est->region));
    EXPECT_FALSE(est->supporting.empty()) << "an estimate needs at least one supporter";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusionFuzz, ::testing::Values(5u, 17u, 23u));

// --- migrate.* payloads from the wire ----------------------------------------------

/// A live shard host and a raw connection to it: hostile payloads must come
/// back as error replies, and the host must keep serving afterwards.
class MigrateFuzz : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    cluster::ShardHost::Options opts;
    opts.announceTtl = util::Duration::zero();
    opts.enableShm = false;
    host_ = std::make_unique<cluster::ShardHost>(clock_, geo::Rect::fromOrigin({0, 0}, 100, 100),
                                                 "F", "127.0.0.1", registry_.port(), opts);
    host_->start();
    rpc_ = std::make_unique<orb::RpcClient>(orb::tcpConnect("127.0.0.1", host_->port()));
  }

  void expectRejected(const std::string& method, const util::Bytes& payload,
                      const std::string& what) {
    EXPECT_THROW(static_cast<void>(rpc_->call(method, payload)), util::MwError)
        << method << ": " << what;
  }

  util::VirtualClock clock_;
  core::RegistryServer registry_;
  std::unique_ptr<cluster::ShardHost> host_;
  std::unique_ptr<orb::RpcClient> rpc_;
};

TEST_P(MigrateFuzz, TruncatedBeginAndAdoptGetErrorReplies) {
  util::Rng rng{GetParam()};
  cluster::MigrateBegin request;
  request.gainerToken = "g";
  request.gainer = core::Endpoint{"127.0.0.1", 1, ""};
  request.objects = {util::MobileObjectId{"o-1"}, util::MobileObjectId{"o-2"}};
  request.rects = {geo::Rect::fromOrigin({0, 0}, 5, 5), geo::Rect{}};
  const util::Bytes begin = cluster::encodeMigrateBegin(request);
  util::ByteWriter adoptWriter;
  adoptWriter.u32(2);
  adoptWriter.str("o-1");
  adoptWriter.str("o-2");
  const util::Bytes adopt = adoptWriter.take();
  for (int iter = 0; iter < 40; ++iter) {
    for (const auto& [method, full] : {std::pair{"migrate.begin", begin},
                                       std::pair{"migrate.adopt", adopt}}) {
      const auto cut = static_cast<std::size_t>(rng.uniformInt(0, std::ssize(full) - 1));
      const util::Bytes truncated(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(cut));
      expectRejected(method, truncated, "cut at " + std::to_string(cut));
      util::Bytes padded = full;
      padded.push_back(static_cast<std::uint8_t>(rng.uniformInt(0, 255)));
      expectRejected(method, padded, "one trailing byte");
    }
  }
  EXPECT_NO_THROW(static_cast<void>(rpc_->call("migrate.adopt", adopt)));
  EXPECT_EQ(host_->migrationSessions(), 0u);
}

TEST_P(MigrateFuzz, OversizedCountsGetErrorReplies) {
  util::Rng rng{GetParam() ^ 0xC0FFEE};
  for (int iter = 0; iter < 20; ++iter) {
    // A count near 2^32 with a few bytes behind it would reserve up to
    // ~128 GiB if believed.
    const auto count = static_cast<std::uint32_t>(rng.uniformInt(1u << 20, 0xFFFFFFFFll));
    util::Bytes tailBytes(static_cast<std::size_t>(rng.uniformInt(0, 16)), 0);

    util::ByteWriter adopt;
    adopt.u32(count);
    adopt.raw(tailBytes.data(), tailBytes.size());
    expectRejected("migrate.adopt", adopt.take(), "object count " + std::to_string(count));

    // Oversize each of begin's three counts in turn (arcs, objects, rects).
    for (int field = 0; field < 3; ++field) {
      util::ByteWriter w;
      w.str("g");
      w.str("127.0.0.1");
      w.u16(1);
      w.str("");
      for (int f = 0; f < field; ++f) w.u32(0);
      w.u32(count);
      w.raw(tailBytes.data(), tailBytes.size());
      expectRejected("migrate.begin", w.take(),
                     "count " + std::to_string(count) + " in field " + std::to_string(field));
    }
  }
  EXPECT_NO_THROW(static_cast<void>(rpc_->call("territory.stats", {})));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MigrateFuzz, ::testing::Values(31u, 37u));

}  // namespace
}  // namespace mw
