// One counter surface, scoped per instance: every facade, index and service counts
// its events in its own registry (a child of MetricsRegistry::Global()), the
// per-instance Stats() views read those registries, and the global view is their
// sum — also after an instance is gone.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/core/hac_file_system.h"
#include "src/server/client.h"
#include "src/server/hac_service.h"
#include "src/support/metric_names.h"
#include "src/support/metrics.h"

namespace hac {
namespace {

namespace mn = metric_names;

uint64_t CounterOf(const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) {
      return v;
    }
  }
  return 0;
}

int64_t GaugeOf(const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.gauges) {
    if (n == name) {
      return v;
    }
  }
  return 0;
}

uint64_t GlobalCounter(const char* name) {
  return CounterOf(MetricsRegistry::Global().Snapshot(), name);
}

const MetricsRegistry& IndexMetrics(HacFileSystem& fs) {
  return dynamic_cast<InvertedIndex&>(fs.index()).metrics();
}

// `files` matching documents under /docs, reindexed, and one semantic directory
// /q selecting them.
void Populate(HacFileSystem& fs, int files) {
  ASSERT_TRUE(fs.Mkdir("/docs").ok());
  for (int i = 0; i < files; ++i) {
    ASSERT_TRUE(fs.WriteFile("/docs/f" + std::to_string(i), "apple " + std::to_string(i))
                    .ok());
  }
  ASSERT_TRUE(fs.Reindex().ok());
  ASSERT_TRUE(fs.SMkdir("/q", "apple").ok());
  ASSERT_EQ(fs.ReadDir("/q").value().size(), static_cast<size_t>(files));
}

// SetQuery(dir, "") withdraws the transient links itself, outside a propagation
// pass; the global view must see exactly the removals the facade reports.
TEST(CounterScopeTest, ClearingAQueryCountsRemovedLinksInTheGlobalView) {
  HacFileSystem fs;
  Populate(fs, 3);
  const uint64_t global0 = GlobalCounter(mn::kLinksTransientRemoved);
  const uint64_t local0 = fs.Stats().transient_links_removed;
  ASSERT_TRUE(fs.SetQuery("/q", "").ok());
  EXPECT_TRUE(fs.ReadDir("/q").value().empty());
  const uint64_t local = fs.Stats().transient_links_removed - local0;
  EXPECT_EQ(local, 3u);
  EXPECT_EQ(GlobalCounter(mn::kLinksTransientRemoved) - global0, local);
}

TEST(CounterScopeTest, InstancesCountAloneAndGlobalIsTheirSum) {
  MetricsRegistry& global = MetricsRegistry::Global();
  global.ResetForTest();
  auto a = std::make_unique<HacFileSystem>();
  HacFileSystem b;
  Populate(*a, 4);
  Populate(b, 2);
  ASSERT_TRUE(a->StatPath("/docs/f0").ok());
  ASSERT_TRUE(a->StatPath("/docs/f0").ok());  // attribute-cache hit

  auto service = std::make_unique<HacService>(b);
  {
    ServiceClient client(*service);
    ASSERT_TRUE(client.StatPath("/docs/f1").ok());
    ASSERT_EQ(client.Search("apple", "/docs").value().size(), 2u);
    ASSERT_TRUE(client.WriteFile("/docs/new", "pear").ok());
  }

  // Each view counts only its own instance's events.
  const StatsSnapshot sa = a->Stats();
  const StatsSnapshot sb = b.Stats();
  EXPECT_EQ(sa.docs_indexed, 4u);
  EXPECT_EQ(sb.docs_indexed, 2u);
  EXPECT_EQ(sa.transient_links_added, 4u);
  EXPECT_EQ(sb.transient_links_added, 2u);
  EXPECT_EQ(sa.attr_cache_hits, 1u);
  EXPECT_EQ(sb.attr_cache_hits + sb.attr_cache_misses, 1u);  // the service's one stat
  const ServiceStats ss = service->Stats();
  EXPECT_EQ(ss.executed_reads, 2u);
  EXPECT_GE(ss.executed_writes, 1u);
  EXPECT_EQ(ss.sessions_opened, 1u);

  // The global view is the sum of the instances, metric by metric.
  const MetricsSnapshot g = global.Snapshot();
  const MetricsSnapshot ma = a->metrics().Snapshot();
  const MetricsSnapshot mb = b.metrics().Snapshot();
  const MetricsSnapshot ia = IndexMetrics(*a).Snapshot();
  const MetricsSnapshot ib = IndexMetrics(b).Snapshot();
  const MetricsSnapshot msvc = service->metrics().Snapshot();
  for (const MetricsSnapshot* owner : {&ma, &mb, &ia, &ib, &msvc}) {
    for (const auto& [name, value] : owner->counters) {
      const uint64_t sum = CounterOf(ma, name) + CounterOf(mb, name) + CounterOf(ia, name) +
                           CounterOf(ib, name) + CounterOf(msvc, name);
      EXPECT_EQ(CounterOf(g, name), sum) << name;
    }
  }
  EXPECT_EQ(CounterOf(g, mn::kReindexDocsIndexed), 6u);
  EXPECT_EQ(CounterOf(g, mn::kServiceExecutedReads), 2u);
  EXPECT_EQ(GaugeOf(g, mn::kServiceOpenSessions), 0);

  // A destroyed facade's counts stay in the global view.
  const uint64_t indexed = CounterOf(g, mn::kReindexDocsIndexed);
  const uint64_t added = CounterOf(g, mn::kLinksTransientAdded);
  a.reset();
  EXPECT_EQ(GlobalCounter(mn::kReindexDocsIndexed), indexed);
  EXPECT_EQ(GlobalCounter(mn::kLinksTransientAdded), added);
  EXPECT_EQ(b.Stats().docs_indexed, 2u);

  // Resetting the global registry zeroes the children, but never rewinds the
  // mutation epoch that page tokens are stamped with.
  service->Stop();
  const uint64_t epoch = b.MutationEpoch();
  global.ResetForTest();
  EXPECT_EQ(b.Stats().docs_indexed, 0u);
  EXPECT_EQ(b.Stats().transient_links_added, 0u);
  EXPECT_EQ(service->Stats().executed_reads, 0u);
  EXPECT_EQ(GlobalCounter(mn::kReindexDocsIndexed), 0u);
  EXPECT_EQ(GlobalCounter(mn::kServiceExecutedWrites), 0u);
  EXPECT_GE(b.MutationEpoch(), epoch);
  service.reset();
  ASSERT_TRUE(b.Reindex().ok());  // ingests /docs/new
  EXPECT_EQ(b.Stats().docs_indexed, 1u);
  EXPECT_GT(b.MutationEpoch(), epoch);
}

// A child registry merges into its parent by name while it lives and folds its
// counters and histograms (not its gauges) into the parent when destroyed.
TEST(CounterScopeTest, ChildRegistryMergesAndFoldsIntoItsParent) {
  MetricsRegistry parent;
  parent.GetCounter("c").Inc(1);
  {
    MetricsRegistry child(parent);
    child.GetCounter("c").Inc(2);
    child.GetGauge("g").Set(5);
    child.GetHistogram("h").Record(8);
    const MetricsSnapshot live = parent.Snapshot();
    EXPECT_EQ(CounterOf(live, "c"), 3u);
    EXPECT_EQ(GaugeOf(live, "g"), 5);
    ASSERT_EQ(live.histograms.size(), 1u);
    EXPECT_EQ(live.histograms[0].count, 1u);
    EXPECT_EQ(live.histograms[0].sum, 8u);
  }
  const MetricsSnapshot after = parent.Snapshot();
  EXPECT_EQ(CounterOf(after, "c"), 3u);
  EXPECT_EQ(GaugeOf(after, "g"), 0);
  ASSERT_EQ(after.histograms.size(), 1u);
  EXPECT_EQ(after.histograms[0].count, 1u);
}

}  // namespace
}  // namespace hac
