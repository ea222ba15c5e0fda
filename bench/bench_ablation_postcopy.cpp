// Ablation: post-copy migration (related work [13]) composed with
// VeCycle's checkpoint recycling, run as MigrationSession's post-copy mode
// (strategy kFull: cold post-copy; kHashes: recycle the checkpoint).
//
// §5 argues the insights of prior migration optimizations "are still
// valid and can be combined with VeCycle". Post-copy is the sharpest
// case: it wins pre-copy's downtime war but pays with a degradation
// window where guest accesses fault across the network. Recycling a
// checkpoint at the destination — with the source's checksum vector
// deciding which checkpoint pages are still valid — removes most of the
// guest's stall, because Fig. 1-level similarity means most of its
// working set is already local.
#include <cstdio>

#include "analysis/table.hpp"
#include "bench_util.hpp"
#include "migration/engine.hpp"
#include "storage/checkpoint.hpp"

namespace {

using namespace vecycle;

migration::MigrationStats Run(sim::LinkConfig link, bool use_checkpoint,
                              double churn_fraction) {
  sim::Simulator simulator;
  sim::Link wire(link);
  sim::ChecksumEngine src_cpu{sim::ChecksumEngineConfig{}};
  sim::ChecksumEngine dst_cpu{sim::ChecksumEngineConfig{}};
  sim::Disk dst_disk{sim::DiskConfig::Hdd()};
  storage::CheckpointStore dst_store{dst_disk};

  vm::GuestMemory memory(GiB(1), vm::ContentMode::kSeedOnly);
  Xoshiro256 rng(0x99);
  for (vm::PageId p = 0; p < memory.PageCount(); ++p) {
    memory.WritePage(p, rng.Next() | (1ull << 62));
  }
  dst_store.Save("vm", storage::Checkpoint::CaptureFrom(memory), kSimEpoch);
  // Diverge a fraction of memory since the checkpoint.
  const auto churned = static_cast<std::uint64_t>(
      churn_fraction * static_cast<double>(memory.PageCount()));
  for (std::uint64_t i = 0; i < churned; ++i) {
    memory.WritePage(rng.NextBelow(memory.PageCount()),
                     rng.Next() | (1ull << 61));
  }

  migration::MigrationRun run;
  run.simulator = &simulator;
  run.link = &wire;
  run.source_memory = &memory;
  run.source = {&src_cpu, nullptr};
  run.destination = {&dst_cpu, &dst_store};
  run.config.strategy = use_checkpoint ? migration::Strategy::kHashes
                                       : migration::Strategy::kFull;
  run.config.postcopy.enabled = true;
  run.config.postcopy.guest_touch_rate_per_s = 10000.0;
  return migration::RunMigration(std::move(run)).stats;
}

}  // namespace

int main() {
  const vecycle::obs::ScopedReporter reporter("bench_ablation_postcopy");
  bench::PrintHeader(
      "Ablation: post-copy x checkpoint recycling (1 GiB VM, busy guest)");

  analysis::Table table({"Network", "Churn", "Scheme", "Downtime",
                         "Residency", "Remote faults", "Guest stall",
                         "Traffic"});
  for (const auto& [net_label, link] :
       {std::pair<const char*, sim::LinkConfig>{"LAN",
                                                sim::LinkConfig::Lan()},
        {"WAN", sim::LinkConfig::Wan()}}) {
    for (const double churn : {0.1, 0.5}) {
      for (const bool ckpt : {false, true}) {
        const auto stats = Run(link, ckpt, churn);
        table.AddRow({net_label,
                      analysis::Table::Pct(churn, 0),
                      ckpt ? "postcopy+ckpt" : "postcopy",
                      FormatDuration(stats.downtime),
                      FormatDuration(stats.time_to_residency),
                      std::to_string(stats.remote_faults),
                      FormatDuration(stats.total_stall),
                      FormatBytes(stats.tx_bytes)});
      }
    }
  }
  std::printf("%s\n", table.Render().c_str());

  std::printf(
      "Post-copy's downtime is the device-state transfer either way; the\n"
      "checkpoint shrinks the degradation window: guest stall drops by an\n"
      "order of magnitude at Fig. 1-level similarity, residency comes\n"
      "sooner, and traffic shrinks to the diverged pages plus the 16 B/page\n"
      "checksum vector. The remote-fault count barely moves: the touch\n"
      "loop is closed, so a guest that stalls less touches more pages.\n"
      "On the WAN the difference decides whether post-copy is usable at\n"
      "all.\n");
  return 0;
}
