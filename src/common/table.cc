#include "common/table.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <set>
#include <sstream>

namespace mrapid {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

Table& Table::with_title(std::string title) {
  title_ = std::move(title);
  return *this;
}

void Table::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::pct(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
  return buf;
}

std::string Table::to_string() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());
  }

  std::ostringstream os;
  if (!title_.empty()) os << "== " << title_ << " ==\n";
  auto emit_row = [&](const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string();
      os << ' ';
      os << cell;
      os << std::string(widths[c] - cell.size(), ' ');
      os << " |";
    }
    os << '\n';
  };
  auto emit_rule = [&] {
    os << '+';
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      os << std::string(widths[c] + 2, '-') << '+';
    }
    os << '\n';
  };
  emit_rule();
  emit_row(headers_);
  emit_rule();
  for (const auto& row : rows_) emit_row(row);
  emit_rule();
  return os.str();
}

void Table::print(std::ostream& os) const { os << to_string(); }

SeriesReport::SeriesReport(std::string title, std::string x_label)
    : title_(std::move(title)), x_label_(std::move(x_label)) {}

void SeriesReport::add_point(const std::string& series, double x, double y) {
  auto it = std::find(order_.begin(), order_.end(), series);
  std::size_t idx;
  if (it == order_.end()) {
    order_.push_back(series);
    points_.emplace_back();
    idx = order_.size() - 1;
  } else {
    idx = static_cast<std::size_t>(it - order_.begin());
  }
  points_[idx].push_back({x, y});
}

double SeriesReport::value(const std::string& series, double x) const {
  auto it = std::find(order_.begin(), order_.end(), series);
  if (it == order_.end()) return std::numeric_limits<double>::quiet_NaN();
  const auto& pts = points_[static_cast<std::size_t>(it - order_.begin())];
  for (const auto& p : pts) {
    if (p.x == x) return p.y;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

std::vector<double> SeriesReport::xs() const {
  std::set<double> xs;
  for (const auto& series : points_) {
    for (const auto& p : series) xs.insert(p.x);
  }
  return {xs.begin(), xs.end()};
}

std::string SeriesReport::to_string() const {
  std::vector<std::string> headers = {x_label_};
  for (const auto& name : order_) headers.push_back(name);
  const bool have_baseline =
      !baseline_.empty() && std::find(order_.begin(), order_.end(), baseline_) != order_.end();
  if (have_baseline) {
    for (const auto& name : order_) {
      if (name != baseline_) headers.push_back("impr(" + name + ")");
    }
  }

  Table table(headers);
  table.with_title(title_);
  for (double x : xs()) {
    std::vector<std::string> row;
    // Trim trailing zeros on the x axis for readability.
    if (x == std::floor(x)) {
      row.push_back(Table::num(x, 0));
    } else {
      row.push_back(Table::num(x, 2));
    }
    for (const auto& name : order_) {
      const double y = value(name, x);
      row.push_back(std::isnan(y) ? "-" : Table::num(y, 2));
    }
    if (have_baseline) {
      const double base = value(baseline_, x);
      for (const auto& name : order_) {
        if (name == baseline_) continue;
        const double y = value(name, x);
        if (std::isnan(y) || std::isnan(base) || base <= 0) {
          row.push_back("-");
        } else {
          row.push_back(Table::pct((base - y) / base));
        }
      }
    }
    table.add_row(std::move(row));
  }
  return table.to_string();
}

void SeriesReport::print(std::ostream& os) const { os << to_string(); }

}  // namespace mrapid
