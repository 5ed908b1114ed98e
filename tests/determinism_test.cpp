// Golden-hash determinism across the kernel queue swap.
//
// The event queue was rewritten (binary heap -> timer-wheel calendar queue,
// PR 3); the contract is that scenario metrics stay *byte-identical* to the
// seed implementation. These tests run a small Narada and a small R-GMA
// scenario from the built-in registry through the campaign runner (jobs=1
// and jobs=4) and compare an FNV-1a hash of the canonical metric rows
// against hashes recorded with the seed (std::priority_queue) kernel. If a
// queue change reorders same-time events or perturbs the clock, every
// downstream metric shifts and these hashes move.
#include <cstdint>
#include <cstdio>
#include <string>

#include "golden.hpp"

namespace gridmon::core {
namespace {

// Canonical row over the *seed-era* result fields only (the kernel-stats
// columns added in PR 3 did not exist when the golden hashes were recorded).
// Format mirrors the seed Campaign::csv() row exactly.
std::string canonical_row(const RunRecord& run) {
  const auto& m = run.results.metrics;
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "%s,%llu,%llu,%llu,%.4f,%.3f,%.3f,%.3f,%.3f,%.3f,%.1f,%lld,%llu,"
      "%lld,%llu,%d",
      run.scenario_id.c_str(), static_cast<unsigned long long>(run.seed),
      static_cast<unsigned long long>(m.sent()),
      static_cast<unsigned long long>(m.received()), m.loss_rate() * 100.0,
      m.rtt_mean_ms(), m.rtt_stddev_ms(), m.rtt_percentile_ms(95),
      m.rtt_percentile_ms(99), m.rtt_percentile_ms(100),
      run.results.servers.cpu_idle_pct,
      static_cast<long long>(run.results.servers.memory_bytes / units::MiB),
      static_cast<unsigned long long>(run.results.events_forwarded),
      static_cast<long long>(run.results.wire_bytes),
      static_cast<unsigned long long>(run.results.refused),
      run.results.completed ? 1 : 0);
  return buffer;
}

std::uint64_t canonical_hash(const char* scenario_id, int jobs) {
  const Campaign campaign = golden::run({scenario_id}, jobs);
  std::string canon;
  for (const auto& run : campaign.runs()) {
    canon += canonical_row(run);
    canon += '\n';
  }
  return golden::fnv1a(canon);
}

// Recorded with the seed kernel (commit ffdedbd, std::priority_queue +
// per-event shared_ptr control blocks) on the tier-1 build settings:
// 1 virtual minute, seeds {1, 2}. (Last rerecord: the Narada/R-GMA
// harnesses started metering server-ingress wire_bytes — previously the
// column was a constant 0 for these scenarios; every other field is
// unchanged from the seed recording.)
constexpr std::uint64_t kGoldenNarada = 5569179624596317302ULL;
constexpr std::uint64_t kGoldenRgma = 1694523157429512404ULL;

TEST(KernelDeterminism, NaradaGoldenHashJobs1) {
  EXPECT_EQ(canonical_hash("narada/comparison/80", 1), kGoldenNarada);
}

TEST(KernelDeterminism, NaradaGoldenHashJobs4) {
  EXPECT_EQ(canonical_hash("narada/comparison/80", 4), kGoldenNarada);
}

TEST(KernelDeterminism, RgmaGoldenHashJobs1) {
  EXPECT_EQ(canonical_hash("rgma/single/100", 1), kGoldenRgma);
}

TEST(KernelDeterminism, RgmaGoldenHashJobs4) {
  EXPECT_EQ(canonical_hash("rgma/single/100", 4), kGoldenRgma);
}

// Every Narada message shape the registry sends: the Triple pad, DBN
// forwarding, UDP with CLIENT_ACKNOWLEDGE, persistent delivery, batched
// aggregation and the SOAP-proxied envelope. The pair covers the full
// Campaign::csv() (wire bytes included), so a change to how a JMS message
// is stored or sized that moves any simulated number moves its model hash.
TEST(KernelDeterminism, NaradaMessageShapes) {
  const Campaign serial = golden::jobs_check(
      {"narada/comparison/triple", "narada/dbn/2000",
       "narada/matrix/udp/client", "narada/persistent/800",
       "ablation/aggregation/8", "ablation/webservices/soap"});
  EXPECT_EQ(golden::split(serial.csv()),
            (golden::Hashes{7333934125627310710ULL,
                            1929660333314919799ULL}));
}

// Every R-GMA run in the registry: the only HTTPS run (rgma/https/200),
// the only legacy-stream run (rgma/legacy/200), the secondary-producer,
// distributed and no-warm-up runs. The pair covers the full
// Campaign::csv(), so a change to a servlet's cost, its TLS bytes or the
// order of its heap, CPU and send calls moves the model hash, and a
// completion that crosses EventFn's inline buffer moves the kernel hash.
TEST(KernelDeterminism, RgmaFamily) {
  const Campaign serial = golden::jobs_check({"rgma/"});
  EXPECT_EQ(golden::split(serial.csv()),
            (golden::Hashes{12729431753850509444ULL,
                            11418435330428789637ULL}));
}

}  // namespace
}  // namespace gridmon::core
