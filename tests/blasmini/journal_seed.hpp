// Test helpers for the blasmini suites: per-test journal directories, and
// seeding the per-key GEMM journal of (device, signature) with one measured
// configuration exactly as a tune of that shape would leave it — the state
// blasmini::dispatcher and atf_served read back.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "atf/kernels/xgemm_direct.hpp"
#include "atf/service/protocol.hpp"
#include "atf/session/journal.hpp"
#include "blasmini/dispatch.hpp"

namespace blasmini_test {

/// A fresh, empty directory for the running test. ctest runs every test
/// case as its own process, so a shared path would race under parallel
/// ctest.
inline std::string fresh_dir(const std::string& suffix = "") {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir = ::testing::TempDir() + "blasmini_" +
                          info->test_suite_name() + "_" + info->name() +
                          suffix;
  EXPECT_EQ(std::system(("rm -rf '" + dir + "' && mkdir -p '" + dir + "'")
                            .c_str()),
            0);
  return dir;
}

/// A valid non-default configuration (asserted valid where it matters).
inline atf::kernels::xgemm::params wide_params() {
  atf::kernels::xgemm::params p;
  p.wgd = 16;
  p.kwid = 2;
  p.vwmd = 2;
  p.vwnd = 2;
  return p;
}

inline blasmini::dispatch_options journaled(const std::string& dir) {
  blasmini::dispatch_options opts;
  opts.journal_dir = dir;
  return opts;
}

inline std::string journal_path(const std::string& dir,
                                const std::string& device,
                                const std::string& signature) {
  return dir + "/" +
         atf::service::service_key{"xgemm", device, signature}.file_stem() +
         ".jsonl";
}

/// One valid measurement of `p` at `time_ns`, as a GEMM tune records it.
inline atf::session::tuning_record gemm_record(
    const atf::kernels::xgemm::params& p, double time_ns) {
  atf::configuration config;
  atf::kernels::xgemm::visit_knobs(p, [&](const char* name, const auto& v) {
    config.add(name, atf::to_tp_value(v));
  });
  auto record = atf::session::tuning_record::from_configuration(config);
  record.scalar = time_ns;
  record.cost = atf::session::json::value(time_ns);
  return record;
}

inline void seed_journal(const std::string& dir, const std::string& device,
                         const std::string& signature,
                         const atf::kernels::xgemm::params& p,
                         double time_ns = 1000.0) {
  atf::session::journal_writer(journal_path(dir, device, signature))
      .append(gemm_record(p, time_ns));
}

}  // namespace blasmini_test
