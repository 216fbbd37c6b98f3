#include "core/report.h"

#include <algorithm>
#include <cctype>
#include <iomanip>
#include <sstream>

namespace sysnoise::core {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::str() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t i = 0; i < headers_.size(); ++i) width[i] = headers_[i].size();
  for (const auto& row : rows_)
    for (std::size_t i = 0; i < row.size(); ++i)
      width[i] = std::max(width[i], row[i].size());

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      os << (i == 0 ? "| " : " | ") << std::left << std::setw(static_cast<int>(width[i]))
         << cells[i];
    }
    os << " |\n";
  };
  emit_row(headers_);
  os << "|";
  for (std::size_t i = 0; i < headers_.size(); ++i)
    os << std::string(width[i] + 2, '-') << "|";
  os << "\n";
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

std::string fmt(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::string fmt_mm(double mean, double mx, int precision) {
  return fmt(mean, precision) + " (" + fmt(mx, precision) + ")";
}

namespace {

// One rendered column group, derived from the axes present in the reports.
struct AxisColumn {
  std::string axis;
  std::string key;
  bool per_option = false;
  bool multi = false;                       // "mean (max)" cell
  std::vector<std::string> option_labels;   // per-option column labels
};

// Union of the axes across reports. Each report lists its axes in registry
// order, so an order-preserving merge of the subsequences reconstructs the
// global column order without consulting the registry.
std::vector<AxisColumn> merge_columns(const std::vector<AxisReport>& reports) {
  std::vector<AxisColumn> cols;
  for (const AxisReport& rep : reports) {
    std::size_t insert_pos = 0;
    for (const AxisResult& res : rep.axes) {
      const auto it = std::find_if(cols.begin(), cols.end(), [&](const AxisColumn& c) {
        return c.axis == res.axis;
      });
      if (it != cols.end()) {
        insert_pos = static_cast<std::size_t>(it - cols.begin()) + 1;
        continue;
      }
      AxisColumn col;
      col.axis = res.axis;
      col.key = res.key;
      col.per_option = res.per_option;
      col.multi = !res.per_option && res.options.size() > 1;
      for (const OptionDelta& o : res.options) col.option_labels.push_back(o.label);
      cols.insert(cols.begin() + static_cast<std::ptrdiff_t>(insert_pos),
                  std::move(col));
      ++insert_pos;
    }
  }
  return cols;
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

}  // namespace

std::string render_axis_table(const std::vector<AxisReport>& reports,
                              const std::string& metric_name) {
  const std::vector<AxisColumn> cols = merge_columns(reports);

  std::vector<std::string> headers = {"Architecture", "Trained " + metric_name};
  for (const AxisColumn& c : cols) {
    if (c.per_option)
      for (const std::string& label : c.option_labels) headers.push_back(label);
    else
      headers.push_back(c.axis);
  }
  headers.push_back("Combined");

  TextTable table(headers);
  for (const AxisReport& rep : reports) {
    std::vector<std::string> cells = {rep.model, fmt(rep.trained)};
    for (const AxisColumn& c : cols) {
      const AxisResult* res = rep.find(c.axis);
      if (c.per_option) {
        for (const std::string& label : c.option_labels) {
          const OptionDelta* o = res != nullptr ? res->option(label) : nullptr;
          cells.push_back(o != nullptr ? fmt(o->delta) : "-");
        }
      } else if (res == nullptr) {
        cells.push_back("-");
      } else {
        cells.push_back(c.multi ? fmt_mm(res->mean, res->max) : fmt(res->mean));
      }
    }
    cells.push_back(fmt(rep.combined));
    table.add_row(std::move(cells));
  }
  return table.str();
}

std::string axis_report_csv(const std::vector<AxisReport>& reports) {
  const std::vector<AxisColumn> cols = merge_columns(reports);

  std::ostringstream os;
  os << "model,trained";
  for (const AxisColumn& c : cols) {
    if (c.per_option)
      for (const std::string& label : c.option_labels) os << ',' << lower(label);
    else if (c.multi)
      os << ',' << c.key << "_mean," << c.key << "_max";
    else
      os << ',' << c.key;
  }
  os << ",combined\n";

  for (const AxisReport& rep : reports) {
    os << rep.model << ',' << fmt(rep.trained);
    for (const AxisColumn& c : cols) {
      const AxisResult* res = rep.find(c.axis);
      if (c.per_option) {
        for (const std::string& label : c.option_labels) {
          const OptionDelta* o = res != nullptr ? res->option(label) : nullptr;
          os << ',' << (o != nullptr ? fmt(o->delta) : "");
        }
      } else if (c.multi) {
        os << ',' << (res != nullptr ? fmt(res->mean) : "") << ','
           << (res != nullptr ? fmt(res->max) : "");
      } else {
        os << ',' << (res != nullptr ? fmt(res->mean) : "");
      }
    }
    os << ',' << fmt(rep.combined) << '\n';
  }
  return os.str();
}

std::string render_step_table(const std::vector<StepPoint>& points,
                              const std::string& metric_name) {
  TextTable table({"Noise added (cumulative)", "Δ" + metric_name});
  for (const StepPoint& p : points) table.add_row({p.step, fmt(p.delta)});
  return table.str();
}

std::string step_points_csv(const std::vector<StepPoint>& points,
                            const std::string& task_label) {
  std::ostringstream os;
  os << "task,step,delta\n";
  for (const StepPoint& p : points)
    os << task_label << ',' << p.step << ',' << fmt(p.delta) << '\n';
  return os.str();
}

}  // namespace sysnoise::core
