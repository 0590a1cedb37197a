// bench_report.hpp — the run-report step the instrumented benches share.
//
// Each bench collects its headline figures in a telemetry::RunMeta and
// ends by writing them, with the registry's snapshot, as an
// htims.telemetry.v1 report (BENCH_<name>.json in the working directory).
// HTIMS_TELEMETRY=0 skips the report.
#pragma once

#include <iostream>
#include <string>

#include "telemetry/telemetry.hpp"

namespace htims::bench {

/// The value of scalar `key` in `meta`, or 0 when it is absent.
inline double find_scalar(const telemetry::RunMeta& meta, const std::string& key) {
    for (const auto& [name, value] : meta.scalars)
        if (name == key) return value;
    return 0.0;
}

/// When telemetry is on: snapshot the registry, print its tables if
/// `print_tables`, save the report to `path` and say where it went.
inline void write_report(const std::string& path, const telemetry::RunMeta& meta,
                         bool print_tables = false) {
    auto& tel = telemetry::Registry::global();
    if (!tel.enabled()) return;
    const auto snap = tel.snapshot();
    if (print_tables) telemetry::print_report(std::cout, snap);
    telemetry::save_json_report(path, snap, meta);
    std::cout << "telemetry run report written to " << path << "\n";
}

}  // namespace htims::bench
