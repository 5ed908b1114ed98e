// The golden harness shared by the determinism suites.
//
// Every suite pins campaign results the same way: queue registry entries
// (each an id prefix; an exact id is its own prefix), run them for
// kDuration at kSeeds seeds, check that one worker and four produce
// byte-identical exports, and compare FNV-1a hashes of the exports against
// values recorded when the results were known good. Re-record a hash only
// when the shift is understood and intended, and say why.
//
// A full-CSV golden is a (model, kernel) pair (split()). The kernel hash
// covers the four columns that record how the discrete-event kernel ran the
// model — sim_events, peak_queue_depth, cb_heap_allocs, handle_allocs — and
// the model hash every other column. A change to the event kernel or the
// stream transport re-records kernel hashes only, so a moved model hash
// means a moved result. Known limit: on memprof runs peak_model_bytes
// counts the kernel slab's chunks of 1,024 nodes (sim::kSlabNodeBytes
// each), so a change that moves the peak number of queued events across a
// chunk boundary moves a model hash.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/campaign.hpp"
#include "core/registry.hpp"

namespace gridmon::golden {

/// The one setting every golden is recorded at: 1 virtual minute, seeds
/// {1, 2}.
inline constexpr SimTime kDuration = units::minutes(1);
inline constexpr int kSeeds = 2;

/// 64-bit FNV-1a.
inline std::uint64_t fnv1a(std::string_view data) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (unsigned char c : data) {
    hash ^= c;
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Run every registry scenario matching one of `entries` on `jobs` workers.
inline core::Campaign run(std::initializer_list<const char*> entries,
                          int jobs, const obs::Options& obs = {}) {
  core::CampaignOptions options;
  options.jobs = jobs;
  options.seeds = kSeeds;
  options.duration = kDuration;
  options.obs = obs;
  core::CampaignRunner runner(options);
  for (const char* entry : entries) {
    EXPECT_GT(runner.add_matching(core::builtin_registry(), entry), 0)
        << entry;
  }
  return runner.run();
}

/// Run `entries` on one worker and on four, check that both campaigns
/// export byte-identical CSV and JSON, and return the one-worker campaign.
inline core::Campaign jobs_check(std::initializer_list<const char*> entries,
                                 const obs::Options& obs = {}) {
  core::Campaign serial = run(entries, 1, obs);
  const core::Campaign parallel = run(entries, 4, obs);
  EXPECT_EQ(serial.csv(), parallel.csv());
  EXPECT_EQ(serial.json(), parallel.json());
  return serial;
}

/// The model and kernel hashes of one campaign CSV. A mismatch prints the
/// actual pair in the form the goldens are written in.
struct Hashes {
  std::uint64_t model = 0;
  std::uint64_t kernel = 0;
  bool operator==(const Hashes&) const = default;
};

inline std::ostream& operator<<(std::ostream& os, const Hashes& hashes) {
  return os << "{" << hashes.model << "ULL, " << hashes.kernel << "ULL}";
}

/// The fields of `text` between separators (a trailing separator yields a
/// trailing empty field).
inline std::vector<std::string_view> fields(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  for (std::size_t at = 0;;) {
    const std::size_t next = text.find(sep, at);
    out.push_back(text.substr(at, next - at));
    if (next == std::string_view::npos) return out;
    at = next + 1;
  }
}

/// Hash a campaign CSV as two halves: the kernel columns (header included)
/// and every other column. Fails the test if the header lacks a kernel
/// column.
inline Hashes split(std::string_view csv) {
  constexpr std::string_view kKernelColumns[] = {
      "sim_events", "peak_queue_depth", "cb_heap_allocs", "handle_allocs"};
  std::vector<std::string_view> lines = fields(csv, '\n');
  if (lines.size() > 1 && lines.back().empty()) lines.pop_back();
  const std::vector<std::string_view> header = fields(lines.front(), ',');
  std::vector<bool> kernel_column;
  for (std::string_view name : header) {
    kernel_column.push_back(std::ranges::find(kKernelColumns, name) !=
                            std::end(kKernelColumns));
  }
  EXPECT_EQ(std::count(kernel_column.begin(), kernel_column.end(), true),
            std::ssize(kKernelColumns))
      << "the CSV header lacks a kernel column: " << lines.front();
  std::string model;
  std::string kernel;
  for (std::string_view line : lines) {
    const std::vector<std::string_view> row = fields(line, ',');
    EXPECT_EQ(row.size(), header.size()) << line;
    for (std::size_t i = 0; i < row.size(); ++i) {
      std::string& half =
          i < kernel_column.size() && kernel_column[i] ? kernel : model;
      half += row[i];
      half += ',';
    }
    model += '\n';
    kernel += '\n';
  }
  return {fnv1a(model), fnv1a(kernel)};
}

}  // namespace gridmon::golden
