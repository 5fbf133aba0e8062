// The striped reading store: concurrent appends to the same and different
// objects against snapshot readers and evidence-column scans (run under
// -DMW_SANITIZE=thread to prove the epoch-publication protocol and the
// column race-free), an oracle pinning the column scan to a brute-force
// filter of the published boxes, lazy TTL-expiry epoch bumps,
// the shared sensor-table epoch path, the catalog/readings lock split (a
// long catalog read must never block ingest), the batch-size-independent
// ingest worker pool, and an oracle pinning sharded ingest to byte-identical
// fusion results vs. the sequential path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/location_service.hpp"
#include "util/rng.hpp"

namespace mw::core {
namespace {

using mw::util::MobileObjectId;
using mw::util::msec;
using mw::util::sec;
using mw::util::SensorId;
using mw::util::VirtualClock;

db::SpatialDatabase makeDb(const util::Clock& clock) {
  db::SpatialDatabase database(clock, geo::Rect::fromOrigin({0, 0}, 100, 50), "SC");
  auto addRoom = [&](const char* id, geo::Rect r) {
    db::SpatialObjectRow row;
    row.id = util::SpatialObjectId{id};
    row.globPrefix = "SC";
    row.objectType = db::ObjectType::Room;
    row.geometryType = db::GeometryType::Polygon;
    row.points = {r.lo(), {r.hi().x, r.lo().y}, r.hi(), {r.lo().x, r.hi().y}};
    database.addObject(row);
  };
  addRoom("roomA", geo::Rect::fromOrigin({0, 0}, 20, 20));
  addRoom("roomB", geo::Rect::fromOrigin({40, 0}, 20, 20));

  db::SensorMeta ubi;
  ubi.sensorId = SensorId{"ubi-1"};
  ubi.sensorType = "Ubisense";
  ubi.errorSpec = quality::ubisenseSpec(1.0);
  ubi.scaleMisidentifyByArea = true;
  ubi.quality.ttl = sec(30);
  database.registerSensor(ubi);
  db::SensorMeta ubi2 = ubi;
  ubi2.sensorId = SensorId{"ubi-2"};
  database.registerSensor(ubi2);
  return database;
}

db::SensorReading reading(const util::Clock& clock, const char* sensor, const char* person,
                          geo::Point2 where) {
  db::SensorReading r;
  r.sensorId = SensorId{sensor};
  r.sensorType = "Ubisense";
  r.mobileObjectId = MobileObjectId{person};
  r.location = where;
  r.detectionRadius = 0.5;
  r.detectionTime = clock.now();
  return r;
}

struct Fixture {
  VirtualClock clock;
  db::SpatialDatabase db;
  LocationService service;

  Fixture() : db(makeDb(clock)), service(clock, db) {}

  db::SensorReading read(const char* sensor, const char* person, geo::Point2 where) {
    return reading(clock, sensor, person, where);
  }
};

// --- concurrency ---------------------------------------------------------------

TEST(ReadingStoreConcurrencyTest, DifferentObjectsAppendWithoutContention) {
  Fixture f;
  constexpr int kThreads = 4;
  constexpr int kObjectsPerThread = 4;
  constexpr int kRounds = 50;

  std::atomic<bool> stop{false};
  std::atomic<int> snapshotsRead{0};
  std::set<std::string> names;
  for (int t = 0; t < kThreads; ++t) {
    for (int o = 0; o < kObjectsPerThread; ++o) {
      names.insert("p" + std::to_string(t) + "-" + std::to_string(o));
    }
  }

  // Readers take lock-free snapshots of every read surface while the
  // writers run; TSan proves the publication protocol and that column
  // scans race column writes safely, the asserts prove each snapshot and
  // each scan is internally consistent.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      // Half the universe: objects cross its edge as the writers move them.
      const geo::Rect west = geo::Rect::fromOrigin({0, 0}, 7, 50);
      while (!stop.load(std::memory_order_acquire)) {
        for (const auto& id : f.db.knownMobileObjects()) {
          auto stored = f.db.readingsFor(id);
          EXPECT_LE(stored.size(), 1u);  // one sensor per object below
          (void)f.db.readingsEpoch(id);
        }
        for (const geo::Rect& q : {f.db.universe(), west}) {
          std::vector<MobileObjectId> found = f.db.mobileObjectsIntersecting(q);
          std::set<std::string> distinct;
          for (const auto& id : found) {
            EXPECT_TRUE(names.contains(id.str())) << id.str();
            distinct.insert(id.str());
          }
          EXPECT_EQ(distinct.size(), found.size()) << "a scan reports each object once";
        }
        snapshotsRead.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (int o = 0; o < kObjectsPerThread; ++o) {
          std::string person = "p" + std::to_string(t) + "-" + std::to_string(o);
          f.db.insertReading(
              f.read("ubi-1", person.c_str(), {5.0 + o + round * 0.05, 5.0 + t}));
          // Every fifth round empties the box (a logout) before the next
          // append refills it: both kinds of column write meet the scans.
          // The last round is not a logout round, so every object ends
          // with one reading.
          if (round % 5 == 2) f.db.expireReadings(MobileObjectId{person}, SensorId{"ubi-1"});
        }
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  for (auto& r : readers) r.join();

  EXPECT_GT(snapshotsRead.load(), 0);
  EXPECT_EQ(f.db.knownMobileObjects().size(),
            static_cast<std::size_t>(kThreads * kObjectsPerThread));
  auto found = f.db.mobileObjectsIntersecting(f.db.universe());
  std::sort(found.begin(), found.end());
  EXPECT_EQ(found, f.db.knownMobileObjects());
  // Writers always targeted distinct objects, so no append ever found its
  // object's writer lock held.
  EXPECT_EQ(f.db.readingWriterContentions(), 0u);

  // A final logout of every object empties every column slot.
  for (const auto& name : names) f.db.expireReadings(MobileObjectId{name}, SensorId{"ubi-1"});
  EXPECT_TRUE(f.db.mobileObjectsIntersecting(f.db.universe()).empty());
  EXPECT_TRUE(f.db.knownMobileObjects().empty());
}

TEST(ReadingStoreConcurrencyTest, SameObjectAppendsSerializePerObject) {
  Fixture f;
  constexpr int kThreads = 4;
  constexpr int kRounds = 50;
  // One producer per sensor technology, all reporting the same person — the
  // MPSC shape the per-object writer mutex exists for.
  for (int t = 0; t < kThreads; ++t) {
    db::SensorMeta meta;
    meta.sensorId = SensorId{"s" + std::to_string(t)};
    meta.sensorType = "Ubisense";
    meta.errorSpec = quality::ubisenseSpec(1.0);
    meta.quality.ttl = sec(30);
    f.db.registerSensor(meta);
  }
  const MobileObjectId person{"alice"};
  const std::uint64_t before = f.db.readingsEpoch(person);

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    std::uint64_t lastEpoch = 0;
    while (!stop.load(std::memory_order_acquire)) {
      std::uint64_t epoch = f.db.readingsEpoch(person);
      EXPECT_GE(epoch, lastEpoch);  // published epochs are monotonic
      lastEpoch = epoch;
      EXPECT_LE(f.db.readingsFor(person).size(), static_cast<std::size_t>(kThreads));
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      std::string sensor = "s" + std::to_string(t);
      for (int round = 0; round < kRounds; ++round) {
        f.db.insertReading(f.read(sensor.c_str(), "alice", {5.0 + t, 5.0 + round * 0.01}));
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_release);
  reader.join();

  // Every append published exactly one epoch increment, none were lost.
  EXPECT_EQ(f.db.readingsEpoch(person) - before,
            static_cast<std::uint64_t>(kThreads * kRounds));
  EXPECT_EQ(f.db.readingsFor(person).size(), static_cast<std::size_t>(kThreads));
}

TEST(ReadingStoreConcurrencyTest, LongCatalogReadDoesNotBlockIngest) {
  Fixture f;
  std::atomic<bool> predicateEntered{false};
  std::atomic<bool> insertsDone{false};
  std::atomic<bool> scannerDone{false};

  // The scanner parks inside db.query()'s predicate, holding the catalog
  // lock for the whole duration of the ingest burst below.
  std::thread scanner([&] {
    bool parked = false;
    (void)f.db.query([&](const db::SpatialObjectRow&) {
      if (!parked) {
        parked = true;
        predicateEntered.store(true, std::memory_order_release);
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
        while (!insertsDone.load(std::memory_order_acquire) &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
      }
      return false;
    });
    scannerDone.store(true, std::memory_order_release);
  });
  while (!predicateEntered.load(std::memory_order_acquire)) std::this_thread::yield();

  // With readings behind the catalog lock these inserts would deadlock-wait
  // on the parked scanner; through the striped store they complete while it
  // still holds the lock.
  for (int i = 0; i < 32; ++i) {
    f.db.insertReading(f.read("ubi-1", "walker", {1.0 + i * 0.1, 1.0}));
  }
  EXPECT_FALSE(scannerDone.load(std::memory_order_acquire));

  insertsDone.store(true, std::memory_order_release);
  scanner.join();
  EXPECT_EQ(f.db.readingsFor(MobileObjectId{"walker"}).size(), 1u);
}

// --- TTL expiry ----------------------------------------------------------------

TEST(ReadingStoreTest, TtlExpiryBumpsEpochLazilyExactlyOnce) {
  Fixture f;
  const MobileObjectId person{"alice"};
  f.db.insertReading(f.read("ubi-1", "alice", {5, 5}));
  const std::uint64_t fresh = f.db.readingsEpoch(person);
  ASSERT_EQ(f.db.readingsFor(person).size(), 1u);

  f.clock.advance(sec(31));  // past the 30 s TTL
  const std::uint64_t expired = f.db.readingsEpoch(person);
  EXPECT_EQ(expired, fresh + 1);  // the boundary crossing published one bump
  EXPECT_EQ(f.db.readingsEpoch(person), expired);  // and only one
  EXPECT_TRUE(f.db.readingsFor(person).empty());

  // The stale evidence is still stored (lazy purge), so the object remains
  // discoverable until purgeExpired removes it and moves the catalog epoch.
  EXPECT_EQ(f.db.knownMobileObjects().size(), 1u);
  const std::uint64_t catalog = f.db.catalogEpoch();
  f.db.purgeExpired();
  EXPECT_TRUE(f.db.knownMobileObjects().empty());
  EXPECT_EQ(f.db.catalogEpoch(), catalog + 1);
}

// --- evidence-box column oracle ------------------------------------------------

/// The brute-force answer the column scan must reproduce: every known
/// object whose published box meets `q` (closed sets), sorted.
std::vector<MobileObjectId> bruteForceIntersecting(const db::SpatialDatabase& db,
                                                   const geo::Rect& q) {
  std::vector<MobileObjectId> out;
  for (const auto& id : db.knownMobileObjects()) {
    const auto box = db.evidenceBoxOf(id);
    if (box && box->intersects(q)) out.push_back(id);
  }
  return out;
}

TEST(ReadingStoreTest, EvidenceColumnScanMatchesBruteForceOracle) {
  Fixture f;
  util::Rng rng{20040};
  constexpr int kObjects = 40;
  constexpr int kSteps = 3000;
  const std::vector<const char*> sensors{"ubi-1", "ubi-2", "ubi-3"};
  db::SensorMeta extra;  // registered and deregistered as the mix runs
  extra.sensorId = SensorId{"ubi-3"};
  extra.sensorType = "Ubisense";
  extra.errorSpec = quality::ubisenseSpec(1.0);
  extra.quality.ttl = sec(12);  // shorter than the others: lazy crossings differ
  bool extraRegistered = false;

  // Half-metre grid coordinates and radii of 0 (a degenerate point box),
  // 0.5 and 2, so boxes often share an edge or a corner with each other and
  // with the queries below.
  const auto gridPoint = [&] {
    return geo::Point2{0.5 * static_cast<double>(rng.uniformInt(0, 200)),
                       0.5 * static_cast<double>(rng.uniformInt(0, 100))};
  };
  const auto someObject = [&] { return "o" + std::to_string(rng.uniformInt(0, kObjects - 1)); };

  std::size_t checked = 0;
  std::size_t nonEmptyAnswers = 0;
  for (int step = 0; step < kSteps; ++step) {
    const std::int64_t op = rng.uniformInt(0, 99);
    if (op < 60) {
      const char* sensor = sensors[rng.uniformInt(0, extraRegistered ? 2 : 1)];
      const std::string person = someObject();
      db::SensorReading r = f.read(sensor, person.c_str(), gridPoint());
      r.detectionRadius = std::vector<double>{0.0, 0.5, 2.0}[rng.uniformInt(0, 2)];
      f.db.insertReading(r);
    } else if (op < 72) {
      f.db.expireReadings(MobileObjectId{someObject()},
                          SensorId{sensors[rng.uniformInt(0, 2)]});
    } else if (op < 76) {
      f.db.purgeExpired();
    } else if (op < 82) {
      f.db.dropMobileObject(MobileObjectId{someObject()});
    } else if (op < 86) {
      if (extraRegistered) {
        f.db.deregisterSensor(extra.sensorId);  // orphans ubi-3 readings until a purge
      } else {
        f.db.registerSensor(extra);
      }
      extraRegistered = !extraRegistered;
    } else {
      // Time passes; epoch reads cross TTL boundaries lazily (the published
      // box must not move on such a bump).
      f.clock.advance(msec(rng.uniformInt(0, 4000)));
      for (int i = 0; i < 5; ++i) (void)f.db.readingsEpoch(MobileObjectId{someObject()});
    }

    // Queries: a random rect, a zero-area point, and for a known object a
    // rect touching its box from outside along an edge and a point at a
    // corner of it.
    std::vector<geo::Rect> queries{geo::Rect::fromCorners(gridPoint(), gridPoint())};
    const geo::Point2 p = gridPoint();
    queries.push_back(geo::Rect::fromCorners(p, p));
    const auto known = f.db.knownMobileObjects();
    if (!known.empty()) {
      const auto box = f.db.evidenceBoxOf(known[rng.uniformInt(0, known.size() - 1)]);
      if (box) {
        queries.push_back(geo::Rect::fromCorners({box->hi().x, box->lo().y},
                                                 {box->hi().x + 3, box->hi().y + 1}));
        queries.push_back(geo::Rect::fromCorners(box->lo(), box->lo()));
      }
    }
    for (const geo::Rect& q : queries) {
      auto found = f.db.mobileObjectsIntersecting(q);
      std::sort(found.begin(), found.end());
      ASSERT_EQ(found, bruteForceIntersecting(f.db, q)) << "step " << step << " query " << q;
      ++checked;
      nonEmptyAnswers += found.empty() ? 0 : 1;
    }
  }
  EXPECT_GT(checked, static_cast<std::size_t>(2 * kSteps));
  EXPECT_GT(nonEmptyAnswers, checked / 4) << "the mix must exercise hits, not just misses";
}

// --- sensor-table epoch discipline (shared helper regression) ------------------

TEST(ReadingStoreTest, RegisterAndDeregisterShareOneEpochPath) {
  Fixture f;
  const MobileObjectId person{"alice"};
  f.db.insertReading(f.read("ubi-1", "alice", {5, 5}));

  const std::uint64_t e0 = f.db.readingsEpoch(person);
  const std::uint64_t c0 = f.db.catalogEpoch();

  // Registration goes through the shared sensor-change helper: one readings
  // epoch bump (calibration shifts every confidence) AND one catalog bump.
  db::SensorMeta extra;
  extra.sensorId = SensorId{"ubi-3"};
  extra.sensorType = "Ubisense";
  extra.errorSpec = quality::ubisenseSpec(1.0);
  extra.quality.ttl = sec(30);
  f.db.registerSensor(extra);
  EXPECT_EQ(f.db.readingsEpoch(person), e0 + 1);
  EXPECT_EQ(f.db.catalogEpoch(), c0 + 1);

  // Deregistration must take the exact same path — identical deltas.
  ASSERT_TRUE(f.db.deregisterSensor(SensorId{"ubi-3"}));
  EXPECT_EQ(f.db.readingsEpoch(person), e0 + 2);
  EXPECT_EQ(f.db.catalogEpoch(), c0 + 2);

  // Unknown sensors bump nothing.
  EXPECT_FALSE(f.db.deregisterSensor(SensorId{"ubi-3"}));
  EXPECT_EQ(f.db.readingsEpoch(person), e0 + 2);
  EXPECT_EQ(f.db.catalogEpoch(), c0 + 2);

  // Deregistering a sensor with stored readings hides them immediately.
  f.db.insertReading(f.read("ubi-2", "alice", {6, 5}));
  ASSERT_EQ(f.db.readingsFor(person).size(), 2u);
  ASSERT_TRUE(f.db.deregisterSensor(SensorId{"ubi-2"}));
  EXPECT_EQ(f.db.readingsFor(person).size(), 1u);
}

// --- ingest pool (keyed on shard width, not batch size) ------------------------

TEST(ReadingStoreTest, IngestPoolRebuildsOnlyOnWidthChange) {
  Fixture f;
  f.service.setIngestShards(4);
  std::vector<db::SensorReading> small;
  for (int p = 0; p < 2; ++p) {
    small.push_back(f.read("ubi-1", ("s" + std::to_string(p)).c_str(), {5.0 + p, 5}));
  }
  std::vector<db::SensorReading> large;
  for (int p = 0; p < 64; ++p) {
    large.push_back(f.read("ubi-1", ("l" + std::to_string(p)).c_str(), {5.0 + p * 0.1, 8}));
  }

  // Small batches shard below the pool width but must reuse the pool.
  f.service.ingestBatch(small);
  f.service.ingestBatch(large);
  f.service.ingestBatch(small);
  EXPECT_EQ(f.service.ingestPoolRecreations(), 1u);

  // A width change drops the pool; the next batch rebuilds it once.
  f.service.setIngestShards(2);
  f.service.ingestBatch(large);
  f.service.ingestBatch(small);
  EXPECT_EQ(f.service.ingestPoolRecreations(), 2u);

  // Setting the same width is a no-op.
  f.service.setIngestShards(2);
  f.service.ingestBatch(large);
  EXPECT_EQ(f.service.ingestPoolRecreations(), 2u);
}

// --- oracle: sharded ingest is byte-identical to sequential --------------------

TEST(ReadingStoreTest, ShardedIngestMatchesSequentialOracle) {
  VirtualClock clock;
  db::SpatialDatabase seqDb = makeDb(clock);
  db::SpatialDatabase parDb = makeDb(clock);
  LocationService seq(clock, seqDb);
  LocationService par(clock, parDb);
  seq.setIngestShards(1);
  par.setIngestShards(4);

  constexpr int kPeople = 12;
  constexpr int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<db::SensorReading> batch;
    for (int p = 0; p < kPeople; ++p) {
      const char* sensor = (p + round) % 2 == 0 ? "ubi-1" : "ubi-2";
      std::string person = "p" + std::to_string(p);
      batch.push_back(reading(clock, sensor, person.c_str(),
                              {2.0 + p * 7.0 + round * 0.5, 5.0 + (p % 5) * 8.0}));
    }
    seq.ingestBatch(batch);
    par.ingestBatch(batch);
    clock.advance(msec(500));
  }

  for (int p = 0; p < kPeople; ++p) {
    MobileObjectId person{"p" + std::to_string(p)};
    auto a = seq.locateObject(person);
    auto b = par.locateObject(person);
    ASSERT_EQ(a.has_value(), b.has_value()) << person.str();
    if (!a) continue;
    // Byte-identical: exact doubles, same supporting/discarded sets, same
    // class — sharding preserves per-object order, so fusion sees the same
    // inputs in the same order.
    EXPECT_EQ(a->region, b->region) << person.str();
    EXPECT_EQ(a->probability, b->probability) << person.str();
    EXPECT_EQ(a->cls, b->cls) << person.str();
    EXPECT_EQ(a->supporting, b->supporting) << person.str();
    EXPECT_EQ(a->discarded, b->discarded) << person.str();
    EXPECT_EQ(seqDb.readingsEpoch(person), parDb.readingsEpoch(person)) << person.str();
  }
  EXPECT_EQ(seqDb.catalogEpoch(), parDb.catalogEpoch());
}

}  // namespace
}  // namespace mw::core
