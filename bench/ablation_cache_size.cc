// Ablation — buffer cache size (paper section 4.3).
//
// "The overall transaction time is so dominated by random reads to
// databases too large to cache in main memory that the additional
// sequential bytes written during commit are not noticeable." This sweep
// verifies the claim: throughput tracks the cache:database ratio, and the
// embedded manager's whole-page commits never become the bottleneck.
#include "bench_common.h"

using namespace lfstx;

int main(int argc, char** argv) {
  BenchConfig cfg = BenchConfig::FromArgs(argc, argv);
  uint64_t txns = cfg.TxnsOr(6000);

  printf("Ablation: kernel buffer cache size (embedded/LFS, %llu txns, "
         "database ~%llu MB)\n\n",
         (unsigned long long)txns,
         (unsigned long long)(cfg.Tpcb().accounts *
                              cfg.Tpcb().account_record_len) /
             (1024 * 1024));

  ResultTable table({"cache", "TPS", "disk reads/txn"});
  for (size_t cache_blocks : {384u, 768u, 1536u, 3072u, 6144u}) {
    Machine::Options mo = cfg.MachineOptions();
    mo.cache_blocks = cache_blocks;
    auto rig = ArchRig::Create(Arch::kEmbedded, mo);
    TpcbConfig tpcb = cfg.Tpcb();
    double tps = 0, reads_per_txn = 0;
    std::string error, metrics_json;
    Status s = rig->Run([&] {
      auto db = LoadTpcb(rig->backend.get(), rig->machine->kernel.get(),
                         tpcb);
      if (!db.ok()) {
        error = db.status().ToString();
        return;
      }
      TpcbDriver driver(rig->backend.get(), &db.value(), tpcb, 47);
      auto w = driver.Run(txns / 4);  // warm the cache
      if (!w.ok()) {
        error = w.status().ToString();
        return;
      }
      MetricsRegistry* metrics = rig->env()->metrics();
      const std::map<std::string, double> sample0 = metrics->SampleNumeric();
      auto r = driver.Run(txns);
      if (!r.ok()) {
        error = r.status().ToString();
        return;
      }
      tps = r.value().tps();
      reads_per_txn =
          MetricValue(MetricDelta(metrics->SampleNumeric(), sample0),
                      "disk.reads") /
          static_cast<double>(txns);
      metrics_json = rig->MetricsJson();
    });
    if (!s.ok() && error.empty()) error = s.ToString();
    if (!error.empty()) {
      table.AddRow({Fmt("%zu MB", cache_blocks * 4 / 1024),
                    "failed: " + error, ""});
      continue;
    }
    cfg.DumpMetrics(Fmt("ablation_cache_%zumb", cache_blocks * 4 / 1024),
                    metrics_json);
    table.AddRow({Fmt("%zu MB", cache_blocks * 4 / 1024), Fmt("%.2f", tps),
                  Fmt("%.2f", reads_per_txn)});
  }
  table.Print();
  printf("\nexpected shape: TPS scales with cache size as the random-read "
         "miss rate falls; writes stay off the critical path.\n");
  return 0;
}
