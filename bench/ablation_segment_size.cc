// Ablation — LFS segment size.
//
// Larger segments amortize the seek better (writes approach sequential
// bandwidth) but make each cleaner pass coarser; tiny segments degrade the
// log toward random writes. DESIGN.md calls this choice out; the paper's
// LFS used 512 KiB segments (128 blocks here).
#include "bench_common.h"

using namespace lfstx;

int main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::FromArgs(argc, argv);
  uint64_t txns = cfg.TxnsOr(6000);

  printf("Ablation: LFS segment size (embedded/LFS, %llu txns)\n\n",
         (unsigned long long)txns);

  ResultTable table({"segment size", "TPS", "partial segments",
                     "blocks/partial", "segs cleaned"});
  for (uint32_t seg_blocks : {16u, 32u, 64u, 128u, 256u}) {
    Machine::Options mo = cfg.MachineOptions();
    mo.lfs.segment_blocks = seg_blocks;
    auto rig = ArchRig::Create(Arch::kEmbedded, mo);
    TpcbConfig tpcb = cfg.Tpcb();
    double tps = 0;
    uint64_t partials = 0, blocks = 0, cleaned = 0;
    std::string error, metrics_json;
    Status s = rig->Run([&] {
      auto db = LoadTpcb(rig->backend.get(), rig->machine->kernel.get(),
                         tpcb);
      if (!db.ok()) {
        error = db.status().ToString();
        return;
      }
      TpcbDriver driver(rig->backend.get(), &db.value(), tpcb, 43);
      MetricsRegistry* metrics = rig->env()->metrics();
      const std::map<std::string, double> sample0 = metrics->SampleNumeric();
      auto r = driver.Run(txns);
      if (!r.ok()) {
        error = r.status().ToString();
        return;
      }
      tps = r.value().tps();
      const std::map<std::string, double> window =
          MetricDelta(metrics->SampleNumeric(), sample0);
      partials = MetricCount(window, "lfs.partial_segments");
      blocks = MetricCount(window, "lfs.blocks_written");
      if (rig->machine->cleaner != nullptr) {
        cleaned = rig->machine->cleaner->stats().segments_cleaned;
      }
      metrics_json = rig->MetricsJson();
    });
    if (!s.ok() && error.empty()) error = s.ToString();
    if (!error.empty()) {
      table.AddRow({Fmt("%u KiB", seg_blocks * 4), "failed: " + error, "",
                    "", ""});
      continue;
    }
    cfg.DumpMetrics(Fmt("ablation_segment_%ukib", seg_blocks * 4),
                    metrics_json);
    table.AddRow({Fmt("%u KiB", seg_blocks * 4), Fmt("%.2f", tps),
                  Fmt("%llu", (unsigned long long)partials),
                  Fmt("%.1f", partials ? static_cast<double>(blocks) /
                                             static_cast<double>(partials)
                                       : 0),
                  Fmt("%llu", (unsigned long long)cleaned)});
  }
  table.Print();
  printf("\nexpected shape: throughput rises with segment size and "
         "flattens once writes are seek-amortized (paper used 512 KiB).\n");
  return 0;
}
