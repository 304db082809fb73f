/**
 * @file
 * Result export: CSV and JSON serialization of SimResult, so external
 * tooling (plots, regression dashboards) can consume simulation
 * output without parsing bench text.
 */

#ifndef NECPT_SIM_REPORT_HH
#define NECPT_SIM_REPORT_HH

#include <cstdio>
#include <string>
#include <vector>

#include "sim/simulator.hh"

namespace necpt
{

/** Write the CSV header row matching writeCsvRow(). */
void writeCsvHeader(std::FILE *out);

/** Write one result as a CSV row. */
void writeCsvRow(std::FILE *out, const SimResult &result);

/** Serialize one result as a JSON object; @p with_host_time appends
 *  its host phase times as "host_time" (an execution detail that
 *  canonical documents leave out). */
std::string toJson(const SimResult &result, bool with_host_time = false);

/** Host phase times as {"build_s", "prefault_s", "warmup_s",
 *  "measure_s"}. */
std::string toJson(const HostPhaseTimes &times);

/** Write a whole result set as CSV to @p path. @return success. */
bool writeCsvFile(const std::string &path,
                  const std::vector<SimResult> &results);

} // namespace necpt

#endif // NECPT_SIM_REPORT_HH
