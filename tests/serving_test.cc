#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <new>
#include <numeric>
#include <semaphore>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "core/fvae_model.h"
#include "data/dataset.h"
#include "math/matrix.h"
#include "serving/embedding_service.h"
#include "serving/embedding_store.h"
#include "serving/fold_in.h"
#include "serving/lru_cache.h"
#include "serving/serving_proxy.h"
#include "serving/sharded_store.h"
#include "serving/telemetry.h"

// ---------------------------------------------------------------------------
// Debug operator-new interposer: the runtime witness for the FVAE_NOALLOC
// contract that fvae_lint checks statically. Replacing the global
// allocation functions routes every new-expression in this binary through
// a counter that is armed only around the call under test; the warmed
// fold-in encode must hit it zero times.
// ---------------------------------------------------------------------------
namespace alloc_witness {

std::atomic<bool> armed{false};
std::atomic<size_t> count{0};

inline void Note() {
  if (armed.load(std::memory_order_relaxed)) {
    count.fetch_add(1, std::memory_order_relaxed);
  }
}

inline void* Alloc(std::size_t size) {
  Note();
  return std::malloc(size == 0 ? 1 : size);
}

inline void* AlignedAlloc(std::size_t size, std::size_t alignment) {
  Note();
  // aligned_alloc insists size is a multiple of alignment.
  const std::size_t rounded =
      (size + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded == 0 ? alignment : rounded);
}

/// Arms the counter for one scope; hits() reads the allocations seen.
class Scope {
 public:
  Scope() {
    count.store(0, std::memory_order_relaxed);
    armed.store(true, std::memory_order_relaxed);
  }
  ~Scope() { armed.store(false, std::memory_order_relaxed); }
  size_t hits() const { return count.load(std::memory_order_relaxed); }
};

}  // namespace alloc_witness

void* operator new(std::size_t size) {
  void* ptr = alloc_witness::Alloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}
void* operator new[](std::size_t size) {
  void* ptr = alloc_witness::Alloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return alloc_witness::Alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return alloc_witness::Alloc(size);
}
void* operator new(std::size_t size, std::align_val_t alignment) {
  void* ptr =
      alloc_witness::AlignedAlloc(size, static_cast<std::size_t>(alignment));
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}
void* operator new[](std::size_t size, std::align_val_t alignment) {
  void* ptr =
      alloc_witness::AlignedAlloc(size, static_cast<std::size_t>(alignment));
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::align_val_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, std::size_t, std::align_val_t) noexcept {
  std::free(ptr);
}
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}

namespace fvae::serving {
namespace {

// ---------- EmbeddingStore ----------

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fvae_store_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(StoreTest, PutAndGet) {
  EmbeddingStore store;
  store.Put(7, {1.0f, 2.0f});
  store.Put(8, {3.0f, 4.0f});
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.dim(), 2u);
  ASSERT_TRUE(store.Get(7).has_value());
  EXPECT_EQ((*store.Get(7))[1], 2.0f);
  EXPECT_FALSE(store.Get(99).has_value());
}

TEST_F(StoreTest, PutOverwrites) {
  EmbeddingStore store;
  store.Put(7, {1.0f});
  store.Put(7, {5.0f});
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ((*store.Get(7))[0], 5.0f);
}

TEST_F(StoreTest, PutBatchFromMatrix) {
  EmbeddingStore store;
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  store.PutBatch({10, 20, 30}, m);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ((*store.Get(20))[0], 3.0f);
  EXPECT_EQ((*store.Get(30))[1], 6.0f);
}

TEST_F(StoreTest, SaveLoadRoundTrip) {
  EmbeddingStore store;
  store.Put(1, {1.5f, -2.5f, 3.5f});
  store.Put(0xFFFFFFFFFFFFFFFFULL, {0.0f, 0.0f, 9.0f});
  ASSERT_TRUE(store.Save(Path("emb.bin")).ok());

  auto loaded = EmbeddingStore::Load(Path("emb.bin"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 2u);
  EXPECT_EQ(loaded->dim(), 3u);
  EXPECT_EQ((*loaded->Get(1))[2], 3.5f);
  EXPECT_EQ((*loaded->Get(0xFFFFFFFFFFFFFFFFULL))[2], 9.0f);
}

TEST_F(StoreTest, LoadMissingFileFails) {
  auto loaded = EmbeddingStore::Load(Path("missing.bin"));
  EXPECT_FALSE(loaded.ok());
}

TEST_F(StoreTest, LoadRejectsTruncatedFile) {
  EmbeddingStore store;
  for (uint64_t i = 0; i < 50; ++i) store.Put(i, {1.0f, 2.0f});
  ASSERT_TRUE(store.Save(Path("big.bin")).ok());
  std::filesystem::resize_file(
      Path("big.bin"), std::filesystem::file_size(Path("big.bin")) / 2);
  EXPECT_FALSE(EmbeddingStore::Load(Path("big.bin")).ok());
}

TEST_F(StoreTest, LoadDetectsBitFlips) {
  // The reload path swaps a dump in only after Load succeeds, so the CRC
  // check here is what keeps a corrupt dump out of serving.
  EmbeddingStore store;
  for (uint64_t i = 0; i < 20; ++i) store.Put(i, {float(i), -1.0f});
  ASSERT_TRUE(store.Save(Path("crc.bin")).ok());

  std::ifstream in(Path("crc.bin"), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  {
    std::ofstream out(Path("crc.bin"), std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto loaded = EmbeddingStore::Load(Path("crc.bin"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find("checksum"), std::string::npos)
      << loaded.status().ToString();
}

TEST_F(StoreTest, LoadsLegacyV1Files) {
  EmbeddingStore store;
  store.Put(5, {1.0f, 2.0f, 3.0f});
  store.Put(6, {4.0f, 5.0f, 6.0f});
  ASSERT_TRUE(store.Save(Path("v2.bin")).ok());

  // A v1 file is the v2 file with version 1 and the CRC footer stripped.
  std::ifstream in(Path("v2.bin"), std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::string v1 = bytes.substr(0, bytes.size() - 4);
  const uint32_t version = 1;
  std::memcpy(v1.data() + 4, &version, sizeof(version));
  {
    std::ofstream out(Path("v1.bin"), std::ios::binary);
    out.write(v1.data(), static_cast<std::streamsize>(v1.size()));
  }
  auto loaded = EmbeddingStore::Load(Path("v1.bin"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded->Get(6))[2], 6.0f);
}

// ---------- LruCache ----------

TEST(LruCacheTest, BasicPutGet) {
  LruCache<uint64_t, int> cache(2);
  cache.Put(1, 100);
  cache.Put(2, 200);
  EXPECT_EQ(cache.Get(1).value(), 100);
  EXPECT_EQ(cache.Get(2).value(), 200);
  EXPECT_FALSE(cache.Get(3).has_value());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<uint64_t, int> cache(2);
  cache.Put(1, 100);
  cache.Put(2, 200);
  cache.Put(3, 300);  // evicts 1
  EXPECT_FALSE(cache.Get(1).has_value());
  EXPECT_TRUE(cache.Get(2).has_value());
  EXPECT_TRUE(cache.Get(3).has_value());
}

TEST(LruCacheTest, GetRefreshesRecency) {
  LruCache<uint64_t, int> cache(2);
  cache.Put(1, 100);
  cache.Put(2, 200);
  cache.Get(1);       // 1 becomes most recent
  cache.Put(3, 300);  // evicts 2, not 1
  EXPECT_TRUE(cache.Get(1).has_value());
  EXPECT_FALSE(cache.Get(2).has_value());
}

TEST(LruCacheTest, PutRefreshesAndOverwrites) {
  LruCache<uint64_t, int> cache(2);
  cache.Put(1, 100);
  cache.Put(2, 200);
  cache.Put(1, 111);  // overwrite, 1 most recent
  cache.Put(3, 300);  // evicts 2
  EXPECT_EQ(cache.Get(1).value(), 111);
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCacheTest, CapacityOne) {
  LruCache<int, int> cache(1);
  cache.Put(1, 10);
  cache.Put(2, 20);
  EXPECT_FALSE(cache.Get(1).has_value());
  EXPECT_EQ(cache.Get(2).value(), 20);
}

TEST(LruCacheTest, CapacityZeroNeverCaches) {
  LruCache<int, int> cache(0);
  cache.Put(1, 10);
  cache.Put(2, 20);
  EXPECT_FALSE(cache.Get(1).has_value());
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruCacheTest, CapacityOneReinsertUpdatesValueAndSurvives) {
  LruCache<int, int> cache(1);
  cache.Put(1, 10);
  cache.Put(1, 11);  // re-insert of the only key must not evict it
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Get(1).value(), 11);
}

TEST(LruCacheTest, ReinsertRefreshesRecency) {
  LruCache<int, int> cache(3);
  cache.Put(1, 10);
  cache.Put(2, 20);
  cache.Put(3, 30);
  cache.Put(1, 11);   // 1 becomes most recent; LRU order is now 2,3,1
  cache.Put(4, 40);   // evicts 2
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_EQ(cache.Get(1).value(), 11);
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_TRUE(cache.Contains(4));
}

TEST(LruCacheTest, EvictionOrderUnderInterleavedGetPut) {
  LruCache<int, int> cache(3);
  cache.Put(1, 10);
  cache.Put(2, 20);
  cache.Put(3, 30);   // recency: 3,2,1
  cache.Get(1);       // recency: 1,3,2
  cache.Put(4, 40);   // evicts 2 -> recency: 4,1,3
  EXPECT_FALSE(cache.Contains(2));
  cache.Get(3);       // recency: 3,4,1
  cache.Put(5, 50);   // evicts 1 -> recency: 5,3,4
  EXPECT_FALSE(cache.Contains(1));
  cache.Put(6, 60);   // evicts 4
  EXPECT_FALSE(cache.Contains(4));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_TRUE(cache.Contains(5));
  EXPECT_TRUE(cache.Contains(6));
  EXPECT_EQ(cache.size(), 3u);
}

// Misses on a full cache must not evict (Get has no side effect on misses).
TEST(LruCacheTest, MissDoesNotDisturbOrder) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  EXPECT_FALSE(cache.Get(99).has_value());
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
}

// ---------- ServingProxy ----------

TEST(ServingProxyTest, LookupPathsAndStats) {
  EmbeddingStore store;
  store.Put(1, {1.0f});
  store.Put(2, {2.0f});
  ServingProxy proxy(&store, /*cache_capacity=*/1);

  // Cold lookup: store hit.
  ASSERT_TRUE(proxy.Lookup(1).has_value());
  EXPECT_EQ(proxy.stats().store_hits, 1u);
  EXPECT_EQ(proxy.stats().cache_hits, 0u);

  // Warm lookup: cache hit.
  ASSERT_TRUE(proxy.Lookup(1).has_value());
  EXPECT_EQ(proxy.stats().cache_hits, 1u);

  // Different user evicts (capacity 1), then a miss for unknown.
  ASSERT_TRUE(proxy.Lookup(2).has_value());
  EXPECT_FALSE(proxy.Lookup(999).has_value());
  EXPECT_EQ(proxy.stats().misses, 1u);
  EXPECT_EQ(proxy.stats().requests, 4u);
  EXPECT_NEAR(proxy.stats().CacheHitRate(), 0.25, 1e-12);
}

TEST(ServingProxyTest, OfflineToOnlinePipeline) {
  // Offline: dump embeddings; online: load + serve (Fig. 2 flow).
  const auto dir = std::filesystem::temp_directory_path() /
                   ("fvae_proxy_test_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "dump.bin").string();
  {
    EmbeddingStore offline;
    Matrix m = Matrix::FromRows({{0.1f, 0.2f}, {0.3f, 0.4f}});
    offline.PutBatch({100, 200}, m);
    ASSERT_TRUE(offline.Save(path).ok());
  }
  auto online = EmbeddingStore::Load(path);
  ASSERT_TRUE(online.ok());
  ServingProxy proxy(&*online, 16);
  ASSERT_TRUE(proxy.Lookup(100).has_value());
  EXPECT_FLOAT_EQ((*proxy.Lookup(100))[1], 0.2f);
  std::filesystem::remove_all(dir);
}

// ---------- ServingProxy reload ----------

class ProxyReloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fvae_reload_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(ProxyReloadTest, ReloadSwapsStoreAndInvalidatesCache) {
  EmbeddingStore day1;
  day1.Put(1, {1.0f, 1.0f});
  day1.Put(2, {2.0f, 2.0f});
  ServingProxy proxy(&day1, /*cache_capacity=*/16);

  // Warm the cache with day-1 values.
  ASSERT_TRUE(proxy.Lookup(1).has_value());
  ASSERT_TRUE(proxy.Lookup(1).has_value());
  EXPECT_EQ(proxy.stats().cache_hits, 1u);

  // Day 2 lands: user 1 re-embedded, user 2 gone, user 3 new.
  const std::string path = Path("day2.bin");
  {
    EmbeddingStore day2;
    day2.Put(1, {10.0f, 10.0f});
    day2.Put(3, {30.0f, 30.0f});
    ASSERT_TRUE(day2.Save(path).ok());
  }
  Status reloaded = proxy.ReloadFromFile(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.ToString();
  EXPECT_EQ(proxy.stats().reloads, 1u);

  // The cached day-1 value must not survive the swap.
  ASSERT_TRUE(proxy.Lookup(1).has_value());
  EXPECT_FLOAT_EQ((*proxy.Lookup(1))[0], 10.0f);
  EXPECT_FALSE(proxy.Lookup(2).has_value());
  ASSERT_TRUE(proxy.Lookup(3).has_value());
  EXPECT_FLOAT_EQ((*proxy.Lookup(3))[1], 30.0f);
}

TEST_F(ProxyReloadTest, FailedReloadKeepsServingOldStore) {
  EmbeddingStore old_store;
  old_store.Put(1, {1.0f});
  ServingProxy proxy(&old_store, 16);
  ASSERT_TRUE(proxy.Lookup(1).has_value());

  EmbeddingStore fresh;
  fresh.Put(1, {9.0f});
  const std::string path = Path("fresh.bin");
  ASSERT_TRUE(fresh.Save(path).ok());

  // A transient read failure ("HDFS bounced") must leave the proxy on the
  // old store — and a later retry succeeds.
  {
    ScopedFailpoint fp("embedding_store.load", FailpointAction::kError);
    Status status = proxy.ReloadFromFile(path);
    EXPECT_EQ(status.code(), StatusCode::kUnavailable);
    EXPECT_EQ(proxy.stats().reloads, 0u);
    ASSERT_TRUE(proxy.Lookup(1).has_value());
    EXPECT_FLOAT_EQ((*proxy.Lookup(1))[0], 1.0f);
  }
  ASSERT_TRUE(proxy.ReloadFromFile(path).ok());
  EXPECT_FLOAT_EQ((*proxy.Lookup(1))[0], 9.0f);
  EXPECT_EQ(proxy.stats().reloads, 1u);

  // A corrupt dump is equally rejected (CRC), old store keeps serving.
  {
    std::ofstream out(Path("torn.bin"), std::ios::binary);
    out << "FVEB garbage that is not a complete dump";
  }
  EXPECT_FALSE(proxy.ReloadFromFile(Path("torn.bin")).ok());
  EXPECT_FLOAT_EQ((*proxy.Lookup(1))[0], 9.0f);
}

// Kill matrix over the dump writer: SIGKILL the producer at every
// registered save failpoint and prove a subsequent reload always swaps in
// a *complete* dump — the old day's or the new day's, never a torn hybrid.
// This closes the loop on the atomic-rename + CRC design: the proxy's
// Load-validate-then-swap can only ever observe all-or-nothing files.
TEST_F(ProxyReloadTest, KillAtEverySaveStageNeverServesTornDump) {
  const char* kStages[] = {
      "embedding_store.save.before_tmp_write",
      "embedding_store.save.after_tmp_write",
      "embedding_store.save.before_rename",
      "embedding_store.save.after_rename",
  };

  for (const char* stage : kStages) {
    SCOPED_TRACE(stage);
    const std::string path = Path("dump.bin");

    EmbeddingStore old_dump;
    old_dump.Put(1, {1.0f, 1.0f});
    old_dump.Put(2, {2.0f, 2.0f});
    ASSERT_TRUE(old_dump.Save(path).ok());

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: die mid-overwrite. No gtest machinery in here.
      ArmFailpoint(stage, FailpointAction::kKill);
      EmbeddingStore new_dump;
      new_dump.Put(1, {10.0f, 10.0f});
      new_dump.Put(3, {30.0f, 30.0f});
      // The kill failpoint fires mid-save; the status never materializes.
      (void)new_dump.Save(path);
      ::_exit(77);  // reached only if the failpoint failed to fire
    }
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(wstatus)) << "child exited instead of dying";
    ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

    EmbeddingStore seed;  // what the proxy served before the reload
    seed.Put(1, {1.0f, 1.0f});
    seed.Put(2, {2.0f, 2.0f});
    ServingProxy proxy(&seed, 16);
    ASSERT_TRUE(proxy.ReloadFromFile(path).ok())
        << "canonical dump must stay loadable at every kill point";

    auto user1 = proxy.Lookup(1);
    ASSERT_TRUE(user1.has_value());
    if (proxy.Lookup(3).has_value()) {
      // The rename landed: the proxy must see the complete new dump.
      EXPECT_FLOAT_EQ((*user1)[0], 10.0f);
      EXPECT_FALSE(proxy.Lookup(2).has_value());
    } else {
      // The rename did not land: the complete old dump, untouched.
      EXPECT_FLOAT_EQ((*user1)[0], 1.0f);
      ASSERT_TRUE(proxy.Lookup(2).has_value());
      EXPECT_FLOAT_EQ((*proxy.Lookup(2))[0], 2.0f);
    }
    std::filesystem::remove(path);
    std::filesystem::remove(path + ".tmp");
  }
}

// ---------- ShardedEmbeddingStore ----------

TEST(ShardedStoreTest, PutGetAcrossShards) {
  ShardedEmbeddingStore store(4);
  for (uint64_t id = 0; id < 100; ++id) {
    store.Put(id, {float(id), float(id) + 0.5f});
  }
  EXPECT_EQ(store.size(), 100u);
  EXPECT_EQ(store.dim(), 2u);
  EXPECT_EQ(store.num_shards(), 4u);
  for (uint64_t id = 0; id < 100; ++id) {
    auto embedding = store.Get(id);
    ASSERT_TRUE(embedding.has_value());
    EXPECT_FLOAT_EQ((*embedding)[0], float(id));
  }
  EXPECT_FALSE(store.Get(12345).has_value());

  // Counters: 100 hits and 1 miss distributed over the shards.
  uint64_t hits = 0, misses = 0, entries = 0;
  for (const auto& s : store.Stats()) {
    hits += s.hits;
    misses += s.misses;
    entries += s.entries;
  }
  EXPECT_EQ(hits, 100u);
  EXPECT_EQ(misses, 1u);
  EXPECT_EQ(entries, 100u);
}

TEST(ShardedStoreTest, SequentialIdsSpreadOverShards) {
  ShardedEmbeddingStore store(8);
  for (uint64_t id = 0; id < 800; ++id) store.Put(id, {1.0f});
  // The splitmix64 mix must not leave any shard empty or hold everything.
  for (const auto& s : store.Stats()) {
    EXPECT_GT(s.entries, 0u);
    EXPECT_LT(s.entries, 800u / 2);
  }
}

TEST(ShardedStoreTest, FromStoreCopiesEverything) {
  EmbeddingStore offline;
  offline.Put(7, {1.0f, 2.0f});
  offline.Put(1ULL << 40, {3.0f, 4.0f});
  const ShardedEmbeddingStore online =
      ShardedEmbeddingStore::FromStore(offline, 4);
  EXPECT_EQ(online.size(), 2u);
  EXPECT_EQ(online.dim(), 2u);
  EXPECT_TRUE(online.Contains(7));
  ASSERT_TRUE(online.Get(1ULL << 40).has_value());
  EXPECT_FLOAT_EQ((*online.Get(1ULL << 40))[1], 4.0f);
}

TEST(ShardedStoreTest, PutOverwrites) {
  ShardedEmbeddingStore store(2);
  store.Put(5, {1.0f});
  store.Put(5, {9.0f});
  EXPECT_EQ(store.size(), 1u);
  EXPECT_FLOAT_EQ((*store.Get(5))[0], 9.0f);
}

// ---------- fold-in fakes for service tests ----------

/// Deterministic encoder: embedding row = first feature id of field 0,
/// repeated. Optionally sleeps to simulate GEMM cost or blocks on a gate
/// for deterministic in-flight tests.
class FakeEncoder : public FoldInEncoder {
 public:
  explicit FakeEncoder(size_t dim, int sleep_ms = 0)
      : dim_(dim), sleep_ms_(sleep_ms) {}

  Matrix EncodeBatch(
      std::span<const core::RawUserFeatures* const> users) override {
    calls.fetch_add(1);
    users_encoded.fetch_add(users.size());
    if (gated_) {
      entered.fetch_add(1);
      gate.acquire();
    }
    if (sleep_ms_ > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms_));
    }
    Matrix out(users.size(), dim_);
    for (size_t i = 0; i < users.size(); ++i) {
      const auto& field0 = (*users[i])[0];
      const float value = field0.empty() ? -1.0f : float(field0[0].id);
      for (size_t d = 0; d < dim_; ++d) out(i, d) = value;
    }
    return out;
  }

  size_t dim() const override { return dim_; }

  void EnableGate() { gated_ = true; }

  std::atomic<int> calls{0};
  std::atomic<size_t> users_encoded{0};
  /// Encodes that reached the gate.
  std::atomic<int> entered{0};
  std::counting_semaphore<1024> gate{0};

 private:
  size_t dim_;
  int sleep_ms_;
  bool gated_ = false;
};

core::RawUserFeatures RawUser(uint64_t feature_id) {
  return {{{feature_id, 1.0f}}};
}

// ---------- fold-in hot path: zero-allocation witness ----------

/// Small but structurally complete model: two encoder hidden layers so the
/// Mlp trunk runs, plus the per-field embedding sums and the mu head. One
/// training step grows the input tables so fold-in actually sums embedding
/// rows instead of skipping every feature as cold.
std::unique_ptr<core::FieldVae> TinyTrainedModel() {
  core::FvaeConfig config;
  config.latent_dim = 6;
  config.encoder_hidden = {12, 10};
  config.decoder_hidden = {12};
  config.anneal_steps = 4;
  config.seed = 11;

  MultiFieldDataset::Builder builder(
      {FieldSchema{"ch", false}, FieldSchema{"tag", true}});
  for (uint64_t i = 0; i < 32; ++i) {
    builder.AddUser({{{i % 4 + 1, 1.0f}},
                     {{100 + i % 4, 1.0f}, {200 + (i % 7), 1.0f}}});
  }
  const MultiFieldDataset data = builder.Build();

  auto model = std::make_unique<core::FieldVae>(config, data.fields());
  std::vector<uint32_t> users(data.num_users());
  std::iota(users.begin(), users.end(), 0);
  model->TrainStep(data, users, /*beta=*/0.1f);
  return model;
}

TEST(FoldInZeroAllocTest, WarmedEncodeBatchIsAllocationFree) {
  const std::unique_ptr<core::FieldVae> trained = TinyTrainedModel();
  const core::FieldVae& model = *trained;
  FvaeFoldInEncoder encoder(&model);
  std::vector<core::RawUserFeatures> raw;
  raw.reserve(8);
  for (uint64_t i = 0; i < 8; ++i) {
    // Mix of known features and one unknown id (cold-feature path).
    raw.push_back({{{i % 4 + 1, 1.0f}},
                   {{100 + i % 4, 1.0f}, {987654321, 1.0f}}});
  }
  std::vector<const core::RawUserFeatures*> ptrs;
  ptrs.reserve(raw.size());
  for (const auto& features : raw) ptrs.push_back(&features);

  Matrix out;
  encoder.EncodeBatchInto(ptrs, &out);  // grows scratch + out to shape
  encoder.EncodeBatchInto(ptrs, &out);  // settles any lazy growth
  ASSERT_EQ(out.rows(), ptrs.size());
  ASSERT_EQ(out.cols(), model.latent_dim());

  size_t allocations = 0;
  {
    alloc_witness::Scope witness;
    encoder.EncodeBatchInto(ptrs, &out);
    allocations = witness.hits();
  }
  EXPECT_EQ(allocations, 0u)
      << "warmed fold-in encode must not touch the heap (FVAE_NOALLOC)";

  // The allocation-free pass still computes the real embeddings.
  const Matrix reference = model.EncodeFoldIn(ptrs);
  EXPECT_EQ(Matrix::MaxAbsDiff(reference, out), 0.0f);
  bool any_nonzero = false;
  for (size_t i = 0; i < out.rows() && !any_nonzero; ++i) {
    for (size_t d = 0; d < out.cols(); ++d) {
      if (out(i, d) != 0.0f) {
        any_nonzero = true;
        break;
      }
    }
  }
  EXPECT_TRUE(any_nonzero) << "encode produced an all-zero embedding batch";
}

// The interposer itself must see ordinary allocations — otherwise a silent
// linker change could turn the zero-allocation assertion into a tautology.
TEST(FoldInZeroAllocTest, InterposerCountsOrdinaryAllocations) {
  size_t allocations = 0;
  {
    alloc_witness::Scope witness;
    std::vector<int>* v = new std::vector<int>(1024, 7);
    allocations = witness.hits();
    delete v;
  }
  EXPECT_GE(allocations, 1u);
}

// ---------- concurrent fold-in (run under -DFVAE_SANITIZE=thread) ----------

/// Cold user `n` of the concurrency tests: known and unknown features mixed.
core::RawUserFeatures ColdUser(uint64_t n) {
  return {{{n % 4 + 1, 0.5f + float(n % 3)}},
          {{100 + n % 4, 1.0f}, {200 + n % 7, 0.25f}, {900000 + n, 1.0f}}};
}

TEST(FoldInConcurrencyTest, ConcurrentEncodesMatchSerial) {
  constexpr size_t kThreads = 4;
  constexpr size_t kFoldInsPerThread = 500;
  const std::unique_ptr<core::FieldVae> model = TinyTrainedModel();

  // Serial reference rows, one per distinct feature pattern.
  constexpr size_t kPatterns = 84;  // lcm of the pattern periods above
  std::vector<core::RawUserFeatures> raw;
  std::vector<Matrix> reference;
  for (uint64_t n = 0; n < kPatterns; ++n) {
    raw.push_back(ColdUser(n));
    const core::RawUserFeatures* user = &raw.back();
    reference.push_back(model->EncodeFoldIn({&user, 1}));
  }

  FvaeFoldInEncoder encoder(model.get());
  EmbeddingServiceOptions options;
  options.num_shards = 4;
  EmbeddingService service(ShardedEmbeddingStore(4), &encoder, options);

  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kFoldInsPerThread; ++i) {
        const uint64_t user_id = t * kFoldInsPerThread + i;  // all distinct
        const size_t pattern = user_id % kPatterns;
        const EmbeddingService::EmbeddingResult result =
            service.LookupOrEncode(user_id, raw[pattern]).get();
        const Matrix& expected = reference[pattern];
        if (!result.ok() || result->size() != expected.cols() ||
            std::memcmp(result->data(), expected.Row(0),
                        expected.cols() * sizeof(float)) != 0) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(service.telemetry().fold_ins.Value(),
            kThreads * kFoldInsPerThread);
  EXPECT_EQ(service.telemetry().batches.Value(),
            kThreads * kFoldInsPerThread);
}

TEST(FoldInConcurrencyTest, ConcurrentScoreFieldMatchesSerial) {
  const std::unique_ptr<core::FieldVae> model = TinyTrainedModel();
  std::vector<core::RawUserFeatures> raw = {ColdUser(1), ColdUser(2)};
  const std::vector<const core::RawUserFeatures*> users = {&raw[0], &raw[1]};
  const Matrix z = model->EncodeFoldIn(users);
  const std::vector<uint64_t> candidates = {100, 101, 102, 103, 424242};
  const Matrix expected_scores = model->ScoreField(z, 1, candidates);
  const Matrix expected_hidden = model->DecoderHidden(z);

  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        if (Matrix::MaxAbsDiff(model->ScoreField(z, 1, candidates),
                               expected_scores) != 0.0f ||
            Matrix::MaxAbsDiff(model->DecoderHidden(z), expected_hidden) !=
                0.0f) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

// ---------- EmbeddingService ----------

EmbeddingServiceOptions FastServiceOptions() {
  EmbeddingServiceOptions options;
  options.num_shards = 4;
  options.batcher.queue_capacity = 4096;
  return options;
}

TEST(EmbeddingServiceTest, HotLookupHitsStore) {
  ShardedEmbeddingStore store(4);
  store.Put(42, {1.0f, 2.0f});
  FakeEncoder encoder(2);
  EmbeddingService service(std::move(store), &encoder, FastServiceOptions());

  auto result = service.Lookup(42);
  ASSERT_TRUE(result.ok());
  EXPECT_FLOAT_EQ((*result)[1], 2.0f);
  EXPECT_EQ(service.telemetry().store_hits.Value(), 1u);
  EXPECT_EQ(encoder.calls.load(), 0);

  auto missing = service.Lookup(7);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.telemetry().not_found.Value(), 1u);
}

TEST(EmbeddingServiceTest, ColdUserFoldsInAndMaterializes) {
  FakeEncoder encoder(2);
  EmbeddingService service(ShardedEmbeddingStore(4), &encoder,
                           FastServiceOptions());

  auto future = service.LookupOrEncode(900, RawUser(55));
  auto result = future.get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FLOAT_EQ((*result)[0], 55.0f);
  EXPECT_EQ(service.telemetry().fold_ins.Value(), 1u);
  EXPECT_EQ(service.telemetry().foldin_latency_us().Count(), 1u);

  // Materialized: the next request is a store hit, no second encode.
  auto again = service.LookupOrEncode(900, RawUser(55));
  ASSERT_TRUE(again.get().ok());
  EXPECT_EQ(service.telemetry().store_hits.Value(), 1u);
  EXPECT_EQ(encoder.users_encoded.load(), 1u);
  EXPECT_TRUE(service.store().Contains(900));
}

TEST(EmbeddingServiceTest, AdmissionRejectsPastInFlightCap) {
  FakeEncoder encoder(2);
  encoder.EnableGate();
  EmbeddingServiceOptions options = FastServiceOptions();
  options.batcher.queue_capacity = 2;
  EmbeddingService service(ShardedEmbeddingStore(4), &encoder, options);

  // Two fold-ins enter the encoder and are held there: the cap is reached.
  std::vector<std::future<EmbeddingService::EmbeddingResult>> held;
  for (uint64_t i = 1; i <= 2; ++i) {
    held.push_back(std::async(std::launch::async, [&service, i] {
      return service.LookupOrEncode(i, RawUser(i)).get();
    }));
  }
  while (encoder.entered.load() < 2) std::this_thread::yield();

  const auto bounced = service.LookupOrEncode(3, RawUser(3)).get();
  ASSERT_FALSE(bounced.ok());
  EXPECT_EQ(bounced.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(service.telemetry().rejected.Value(), 1u);
  EXPECT_EQ(service.telemetry().queue_peak(), 2u);
  EXPECT_FALSE(service.store().Contains(3));

  encoder.gate.release(2);
  for (auto& future : held) EXPECT_TRUE(future.get().ok());
  EXPECT_EQ(service.telemetry().fold_ins.Value(), 2u);
  // Capacity is back: the bounced user now folds in.
  encoder.gate.release(1);
  EXPECT_TRUE(service.LookupOrEncode(3, RawUser(3)).get().ok());
}

TEST(EmbeddingServiceTest, LateFoldInAnswersDeadlineExceeded) {
  FakeEncoder encoder(2);
  encoder.EnableGate();
  EmbeddingService service(ShardedEmbeddingStore(4), &encoder,
                           FastServiceOptions());

  auto late = std::async(std::launch::async, [&service] {
    return service.LookupOrEncode(1, RawUser(1), /*deadline_micros=*/1000)
        .get();
  });
  while (encoder.entered.load() < 1) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  encoder.gate.release();

  const auto result = late.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  const ServingTelemetry& telemetry = service.telemetry();
  EXPECT_EQ(telemetry.deadline_expired.Value(), 1u);
  EXPECT_EQ(telemetry.fold_ins.Value(), 0u);
  EXPECT_EQ(telemetry.requests.Value(), 1u);
  // The paid-for embedding is still materialized: a retry is a store hit.
  EXPECT_TRUE(service.LookupOrEncode(1, RawUser(1)).get().ok());
  EXPECT_EQ(telemetry.store_hits.Value(), 1u);
  EXPECT_EQ(encoder.users_encoded.load(), 1u);
}

TEST(EmbeddingServiceTest, AsyncFiresDoneOnceBeforeReturning) {
  FakeEncoder encoder(3);
  EmbeddingService service(ShardedEmbeddingStore(4), &encoder,
                           FastServiceOptions());
  EmbeddingService no_encoder(ShardedEmbeddingStore(4), nullptr);

  int calls = 0;
  std::vector<EmbeddingService::EmbeddingResult> results;
  const auto record = [&](EmbeddingService::EmbeddingResult result) {
    ++calls;
    results.push_back(std::move(result));
  };
  service.LookupOrEncodeAsync(7, RawUser(42), 0, record);  // fold-in
  EXPECT_EQ(calls, 1);
  service.LookupOrEncodeAsync(7, RawUser(42), 0, record);  // store hit
  EXPECT_EQ(calls, 2);
  no_encoder.LookupOrEncodeAsync(7, RawUser(42), 0, record);  // not found
  EXPECT_EQ(calls, 3);

  ASSERT_TRUE(results[0].ok()) << results[0].status().ToString();
  ASSERT_EQ(results[0]->size(), 3u);
  EXPECT_FLOAT_EQ((*results[0])[0], 42.0f);
  ASSERT_TRUE(results[1].ok());
  EXPECT_EQ(*results[1], *results[0]);
  EXPECT_EQ(results[2].status().code(), StatusCode::kNotFound);
  EXPECT_EQ(encoder.users_encoded.load(), 1u);
}

TEST(EmbeddingServiceTest, NoEncoderAnswersNotFound) {
  ShardedEmbeddingStore store(2);
  store.Put(1, {5.0f});
  EmbeddingService service(std::move(store), nullptr);
  ASSERT_TRUE(service.LookupOrEncode(1, RawUser(1)).get().ok());
  auto cold = service.LookupOrEncode(2, RawUser(2)).get();
  EXPECT_FALSE(cold.ok());
  EXPECT_EQ(cold.status().code(), StatusCode::kNotFound);
}

TEST(EmbeddingServiceTest, TelemetryJsonContainsKeyFields) {
  FakeEncoder encoder(2);
  EmbeddingService service(ShardedEmbeddingStore(2), &encoder,
                           FastServiceOptions());
  // Only the telemetry side effect matters here, not the embedding.
  (void)service.LookupOrEncode(1, RawUser(1)).get();
  const std::string json = service.TelemetryJson();
  EXPECT_NE(json.find("\"qps\""), std::string::npos);
  EXPECT_NE(json.find("\"fold_ins\":1"), std::string::npos);
  EXPECT_NE(json.find("\"foldin_latency_us\""), std::string::npos);
  EXPECT_NE(json.find("\"shards\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

// ---------- concurrency stress (run under -DFVAE_SANITIZE=thread) ----------

TEST(EmbeddingServiceStressTest, ConcurrentMixedTrafficLosesNothing) {
  constexpr size_t kThreads = 8;
  constexpr size_t kRequestsPerThread = 1500;
  constexpr size_t kHotUsers = 128;

  ShardedEmbeddingStore store(8);
  for (uint64_t id = 0; id < kHotUsers; ++id) {
    store.Put(id, {float(id), 0.0f});
  }
  FakeEncoder encoder(2);
  EmbeddingServiceOptions options = FastServiceOptions();
  options.num_shards = 8;
  // Fewer fold-in slots than threads, so admission control bounces some
  // requests and the outcome invariant covers rejections too.
  options.batcher.queue_capacity = 4;
  EmbeddingService service(std::move(store), &encoder, options);

  std::atomic<size_t> ok_responses{0};
  std::atomic<size_t> error_responses{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::future<EmbeddingService::EmbeddingResult>> inflight;
      for (size_t i = 0; i < kRequestsPerThread; ++i) {
        uint64_t user_id;
        if (i % 3 != 0) {
          user_id = (t * 31 + i) % kHotUsers;          // hot traffic
        } else {
          user_id = 100000 + t * kRequestsPerThread + (i % 700);  // cold-ish
        }
        inflight.push_back(
            service.LookupOrEncode(user_id, RawUser(user_id)));
        if (inflight.size() >= 32) {
          for (auto& future : inflight) {
            future.get().ok() ? ok_responses.fetch_add(1)
                              : error_responses.fetch_add(1);
          }
          inflight.clear();
        }
      }
      for (auto& future : inflight) {
        future.get().ok() ? ok_responses.fetch_add(1)
                          : error_responses.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto& telemetry = service.telemetry();
  const uint64_t total = kThreads * kRequestsPerThread;
  // No lost responses: every request resolved exactly once.
  EXPECT_EQ(ok_responses.load() + error_responses.load(), total);
  EXPECT_EQ(telemetry.requests.Value(), total);
  // Outcome counters partition the request count.
  EXPECT_EQ(telemetry.store_hits.Value() + telemetry.fold_ins.Value() +
                telemetry.rejected.Value() +
                telemetry.deadline_expired.Value() +
                telemetry.not_found.Value(),
            total);
  // Successful answers are exactly hits + fold-ins.
  EXPECT_EQ(ok_responses.load(),
            telemetry.store_hits.Value() + telemetry.fold_ins.Value());
  EXPECT_EQ(telemetry.not_found.Value(), 0u);
  EXPECT_GT(telemetry.fold_ins.Value(), 0u);
  EXPECT_GT(telemetry.store_hits.Value(), 0u);
  // Encoder accounting matches telemetry.
  EXPECT_EQ(encoder.users_encoded.load(), telemetry.fold_ins.Value());
  // Per-shard hits/misses add up to the store traffic (every request does
  // exactly one store Get before any fold-in).
  uint64_t shard_hits = 0, shard_misses = 0;
  for (const auto& s : service.store().Stats()) {
    shard_hits += s.hits;
    shard_misses += s.misses;
  }
  EXPECT_EQ(shard_hits, telemetry.store_hits.Value());
  EXPECT_EQ(shard_hits + shard_misses, total);
}

}  // namespace
}  // namespace fvae::serving
