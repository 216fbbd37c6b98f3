// Plain-text table / CSV rendering for the bench binaries. Columns are
// derived from whatever axes the AxisReports carry (registry order), so a
// newly registered NoiseAxis shows up in every table and CSV without
// touching this module. Cell format mirrors the paper: "mean (max)" for
// multi-option axes, one column per option for per-option axes (FP16/INT8),
// "-" where an axis does not apply.
#pragma once

#include <string>
#include <vector>

#include "core/sweep.h"

namespace sysnoise::core {

// Fixed-width text table.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);
  void add_row(std::vector<std::string> cells);
  std::string str() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

std::string fmt(double v, int precision = 2);
// "mean (max)" cell.
std::string fmt_mm(double mean, double mx, int precision = 2);

// Render a Table 2/3/4-style report: one row per AxisReport, one column
// group per axis present in any report.
std::string render_axis_table(const std::vector<AxisReport>& reports,
                              const std::string& metric_name);

// CSV dump of the same reports (for downstream plotting). Multi-option
// axes emit "<key>_mean,<key>_max" columns, per-option axes one column per
// option label, single-option axes just "<key>".
std::string axis_report_csv(const std::vector<AxisReport>& reports);

// Fig. 3 stepwise table / CSV helpers.
std::string render_step_table(const std::vector<StepPoint>& points,
                              const std::string& metric_name);
std::string step_points_csv(const std::vector<StepPoint>& points,
                            const std::string& task_label);

// A named Fig. 3 stepwise curve — the stepwise counterpart of AxisReport.
struct StepReport {
  std::string model;
  std::vector<StepPoint> points;
};

}  // namespace sysnoise::core
